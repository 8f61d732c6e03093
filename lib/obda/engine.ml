(** The OBDA engine: ties ontology, mappings and database into the
    query-answering service of Section 1 — "query answering can be
    enriched by exploiting the constraints that can be expressed by the
    ontology".

    The certain-answers pipeline is the textbook one, with a single
    minimization at the end:
    {v  UCQ over ontology --(PerfectRef saturation)--> UCQ over virtual ABox
        --(mapping unfolding)--> UCQ over database --(minimize)-->
        compiled UCQ --(evaluate)--> answers  v}

    Unfolding comes before minimization because it is what shrinks the
    rewriting: a disjunct mentioning a predicate no mapping covers dies
    there, so the quadratic containment test runs over the few
    database-level disjuncts instead of every ontology-level one.  A
    materialized-ABox engine ([of_abox]) has no mapping layer; its
    compile minimizes the saturation itself.

    The consistency check is a client of the same pipeline: it answers
    one violation query per negative inclusion with [certain_answers],
    over the sources.  Nothing here materializes the virtual ABox.

    An engine amortizes its TBox-level work: the classification and the
    prepared PerfectRef rule base (normalization + rule indexing) are
    computed lazily, once, and shared by every subsequent call.  The
    classification-aided rule base ([Rewrite.presto_ref]) is a reference
    implementation for tests and benches, not a serving mode. *)

open Dllite

let log_src = Logs.Src.create "obda.engine" ~doc:"OBDA query answering"

module Log = (val Logs.src_log log_src : Logs.LOG)

type t = {
  tbox : Tbox.t;
  mappings : Mapping.t;
  database : Database.t;
  constraints : Constraints.t list;
      (* functionality / identification constraints, checked at the
         data level (see [Integrity]) *)
  cls : Quonto.Classify.t Lazy.t;
      (* the shared classification: forced at most once per engine *)
  prepared : Rewrite.prepared Lazy.t;
      (* the PerfectRef rule base, shared by every compile *)
}

(** [create ?constraints ~tbox ~mappings ~database ()] assembles a
    system.  @raise Invalid_argument when the constraints violate the
    DL-Lite_A admissibility condition w.r.t. [tbox]. *)
let create ?(constraints = []) ~tbox ~mappings ~database () =
  (match Constraints.well_formed tbox constraints with
   | [] -> ()
   | v :: _ -> invalid_arg ("Engine.create: " ^ v.Constraints.reason));
  {
    tbox;
    mappings;
    database;
    constraints;
    cls = lazy (Quonto.Classify.classify tbox);
    prepared = lazy (Rewrite.prepare tbox);
  }

(** [of_abox tbox abox] wraps a materialized ABox as a degenerate OBDA
    system: one identity-style mapping per named predicate is not even
    needed — the ABox is loaded as ontology-level relations in a private
    database and queried directly. *)
let of_abox tbox abox =
  create ~tbox ~mappings:[] ~database:(Vabox.database_of_abox abox) ()

let tbox t = t.tbox
let mappings t = t.mappings
let database t = t.database

(** [compile t ucq] is the data-independent half of the pipeline, and
    the one place a query becomes a database UCQ: saturate [ucq] under
    the PerfectRef rule base, unfold the saturation through the mappings
    when present, then minimize once.  The result is ready for
    [evaluate_compiled] and, being a pure function of (TBox, mappings,
    query), safely cacheable across data updates (the serving layer does
    exactly that).  All of it runs, and is timed, as the [rewrite]
    phase. *)
let compile t ucq =
  let prepared = Lazy.force t.prepared in
  Obs.span "rewrite" (fun () ->
      let saturated, stats = Rewrite.expand prepared ucq in
      let database_level =
        if t.mappings = [] then saturated
        else begin
          let unfolded = Mapping.unfold_ucq t.mappings saturated in
          Log.debug (fun m ->
              m "compile: %d saturated disjuncts unfold to %d"
                (List.length saturated) (List.length unfolded));
          unfolded
        end
      in
      fst (Rewrite.record prepared stats (Cq.minimize_ucq database_level)))

(** [evaluate_compiled t ucq] — the data-dependent half: evaluate a
    compiled UCQ over the current database contents with the cost-based
    executor, planning against the database's persistent pattern
    indexes (built lazily on first probe, maintained incrementally by
    [Database.insert] — so cold evaluations after a data update pay no
    index rebuild). *)
let evaluate_compiled t ucq =
  Obs.span "eval" (fun () ->
      Cq.evaluate_ucq ~source:(Database.source t.database) ucq)

(** [evaluate_delta t ucq ~delta] — the answers a compiled UCQ gains
    from the rows of [delta], which must already be in the engine's
    database ({!Cq.evaluate_ucq_delta}).  Same executor, same indexes as
    {!evaluate_compiled}; timed under its own [delta] phase. *)
let evaluate_delta t ucq ~delta =
  Obs.span "delta" (fun () ->
      Cq.evaluate_ucq_delta ~source:(Database.source t.database)
        ~delta:(Database.source delta) ucq)

(** [certain_answers t q] — the full pipeline.  With mappings installed
    the rewriting is *unfolded* and evaluated over the raw database;
    without, it is evaluated over the loaded ABox relations. *)
let certain_answers t q = evaluate_compiled t (compile t [ q ])

(** [certain_answers_ucq t ucq] — same for a union query. *)
let certain_answers_ucq t ucq = evaluate_compiled t (compile t ucq)

(** [violations t] — the violation report: every told negative
    inclusion whose violation query ({!Consistency.violation_query}) has
    a certain answer, with the named witnesses its witness query finds.
    [] iff the KB is consistent. *)
let violations t =
  List.filter_map
    (fun ax ->
      match Consistency.violation_query ax, Consistency.witness_query ax with
      | Some q, Some wq when certain_answers t q <> [] ->
        let witnesses = List.sort_uniq compare (List.concat (certain_answers t wq)) in
        Some { Consistency.axiom = ax; witnesses }
      | _ -> None)
    (Tbox.negative_inclusions t.tbox)

(** [consistent t] — KB consistency: no violation query fires. *)
let consistent t = violations t = []

(** [integrity_violations t] — functionality / identification
    violations over the retrieved facts (empty when no constraints are
    installed).  Integrity is epistemic, so each constrained relation is
    read as the mappings retrieve it ({!Mapping.rows}), unsaturated; an
    engine without mappings reads its own database. *)
let integrity_violations t =
  let facts pred =
    if t.mappings = [] then Database.facts t.database pred
    else Mapping.rows t.mappings t.database pred
  in
  Integrity.check ~facts t.constraints

(** [classification t] — intensional service pass-through: the ontology
    engineer's design-quality check runs on the same system handle,
    computed once per engine and shared across calls. *)
let classification t = Lazy.force t.cls
