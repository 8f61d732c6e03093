(** UCQ rewriting for DL-Lite_R: the PerfectRef algorithm, plus a
    classification-aided variant in the spirit of Presto (the paper's
    Section 5 notes that classification "can be crucial for query
    answering, as for example happens in the Presto algorithm ...
    currently implemented in the DL-Lite reasoner QuOnto").

    Qualified existentials are handled by the standard normalization:
    each axiom [B ⊑ ∃Q.A] becomes a fresh sub-role [w ⊑ Q] with
    [∃w⁻ ⊑ A] and [B ⊑ ∃w].  The fresh roles have no data, so disjuncts
    still mentioning them after saturation simply evaluate to ∅. *)

open Dllite

let log_src = Logs.Src.create "obda.rewrite" ~doc:"UCQ rewriting (PerfectRef/Presto)"

module Log = (val Logs.src_log log_src : Logs.LOG)

(* ------------------------------------------------------------------ *)
(* Normalization                                                       *)
(* ------------------------------------------------------------------ *)

let fresh_role_prefix = "w$"

(** [normalize tbox] eliminates qualified existential right-hand sides;
    the result is a conservative extension over the original signature. *)
let normalize tbox =
  let counter = ref 0 in
  let axioms =
    List.concat_map
      (fun ax ->
        match ax with
        | Syntax.Concept_incl (b, Syntax.C_exists_qual (q, a)) ->
          let w = Printf.sprintf "%s%d" fresh_role_prefix !counter in
          incr counter;
          [
            Syntax.Role_incl (Syntax.Direct w, Syntax.R_role q);
            Syntax.Concept_incl
              (Syntax.Exists (Syntax.Inverse w), Syntax.C_basic (Syntax.Atomic a));
            Syntax.Concept_incl (b, Syntax.C_basic (Syntax.Exists (Syntax.Direct w)));
          ]
        | _ -> [ ax ])
      (Tbox.axioms tbox)
  in
  Tbox.of_axioms ~signature:(Tbox.signature tbox) axioms

(* ------------------------------------------------------------------ *)
(* Canonical form of CQs (for termination of the saturation loop)      *)
(* ------------------------------------------------------------------ *)

let canonicalize q =
  (* sort atoms with variable names blinded, rename non-answer
     variables in traversal order, then sort for set-comparison *)
  let blind_term = function
    | Cq.Const c -> "k:" ^ c
    | Cq.Var v -> if List.mem v q.Cq.answer_vars then "a:" ^ v else "v:_"
  in
  let blind_key a = (a.Cq.pred, List.map blind_term a.Cq.args) in
  let atoms = List.sort (fun a b -> compare (blind_key a) (blind_key b)) q.Cq.body in
  let renaming = Hashtbl.create 8 in
  let next = ref 0 in
  let rename_term = function
    | Cq.Const _ as t -> t
    | Cq.Var v when List.mem v q.Cq.answer_vars -> Cq.Var v
    | Cq.Var v -> (
      match Hashtbl.find_opt renaming v with
      | Some v' -> Cq.Var v'
      | None ->
        let v' = Printf.sprintf "v%d" !next in
        incr next;
        Hashtbl.add renaming v v';
        Cq.Var v')
  in
  let atoms =
    List.map (fun a -> { a with Cq.args = List.map rename_term a.Cq.args }) atoms
  in
  let atoms = List.sort_uniq Cq.compare_atom atoms in
  { q with Cq.body = atoms }

(* ------------------------------------------------------------------ *)
(* Atom-level rewriting steps                                          *)
(* ------------------------------------------------------------------ *)

type pi_index = {
  (* all entailed-or-told PIs, keyed by what they can rewrite *)
  concept_into : (string, Syntax.basic list) Hashtbl.t;
      (* A ↦ Bs with B ⊑ A *)
  exists_into : (Syntax.role, Syntax.basic list) Hashtbl.t;
      (* Q ↦ Bs with B ⊑ ∃Q *)
  attr_domain_into : (string, Syntax.basic list) Hashtbl.t;
      (* U ↦ Bs with B ⊑ δ(U) *)
  role_into : (string, Syntax.role list) Hashtbl.t;
      (* P ↦ Qs with Q ⊑ P  (left-hand roles, with orientation) *)
  attr_into : (string, string list) Hashtbl.t;  (* U ↦ Vs with V ⊑ U *)
}

let add_to tbl k v =
  let prev = Option.value ~default:[] (Hashtbl.find_opt tbl k) in
  if not (List.mem v prev) then Hashtbl.replace tbl k (v :: prev)

(** [index_told tbox] indexes the told positive inclusions of a
    (normalized) TBox — the vanilla PerfectRef rule base. *)
let index_told tbox =
  let idx =
    {
      concept_into = Hashtbl.create 64;
      exists_into = Hashtbl.create 64;
      attr_domain_into = Hashtbl.create 16;
      role_into = Hashtbl.create 64;
      attr_into = Hashtbl.create 16;
    }
  in
  List.iter
    (fun ax ->
      match ax with
      | Syntax.Concept_incl (b, Syntax.C_basic (Syntax.Atomic a)) ->
        add_to idx.concept_into a b
      | Syntax.Concept_incl (b, Syntax.C_basic (Syntax.Exists q)) ->
        add_to idx.exists_into q b
      | Syntax.Concept_incl (b, Syntax.C_basic (Syntax.Attr_domain u)) ->
        add_to idx.attr_domain_into u b
      | Syntax.Role_incl (q1, Syntax.R_role q2) ->
        (* orient on the base name of the right-hand role *)
        (match q2 with
         | Syntax.Direct p -> add_to idx.role_into p q1
         | Syntax.Inverse p -> add_to idx.role_into p (Syntax.role_inverse q1))
      | Syntax.Attr_incl (u1, Syntax.A_attr u2) -> add_to idx.attr_into u2 u1
      | Syntax.Concept_incl (_, (Syntax.C_neg _ | Syntax.C_exists_qual _))
      | Syntax.Role_incl (_, Syntax.R_neg _)
      | Syntax.Attr_incl (_, Syntax.A_neg _) -> ())
    (Tbox.axioms tbox);
  idx

(** [index_classified tbox] indexes the *entailed* positive inclusions,
    read off the digraph classification — the Presto-style rule base.
    One application step then jumps an entire subsumption chain, so the
    saturation converges in far fewer rounds (ablation A4).  Every list
    is one closure row, duplicate-free by construction, so the index is
    built with plain stores — no membership test per subsumee. *)
let index_classified tbox =
  let cls = Quonto.Classify.classify tbox in
  let idx =
    {
      concept_into = Hashtbl.create 64;
      exists_into = Hashtbl.create 64;
      attr_domain_into = Hashtbl.create 16;
      role_into = Hashtbl.create 64;
      attr_into = Hashtbl.create 16;
    }
  in
  (* the strict subsumees of [e] picked by [f], stored under [k] *)
  let store tbl k e f =
    match
      List.filter_map
        (fun e' -> if Syntax.equal_expr e' e then None else f e')
        (Quonto.Classify.subsumees cls e)
    with
    | [] -> ()
    | row -> Hashtbl.replace tbl k row
  in
  let basic = function Syntax.E_concept b -> Some b | _ -> None in
  let signature = Tbox.signature tbox in
  List.iter
    (fun a -> store idx.concept_into a (Syntax.E_concept (Syntax.Atomic a)) basic)
    (Signature.concepts signature);
  List.iter
    (fun p ->
      List.iter
        (fun q -> store idx.exists_into q (Syntax.E_concept (Syntax.Exists q)) basic)
        [ Syntax.Direct p; Syntax.Inverse p ];
      (* the [Inverse p] row is the mirror of this one *)
      store idx.role_into p
        (Syntax.E_role (Syntax.Direct p))
        (function Syntax.E_role q -> Some q | _ -> None))
    (Signature.roles signature);
  List.iter
    (fun u ->
      store idx.attr_domain_into u
        (Syntax.E_concept (Syntax.Attr_domain u))
        basic;
      store idx.attr_into u (Syntax.E_attr u)
        (function Syntax.E_attr v -> Some v | _ -> None))
    (Signature.attributes signature);
  idx

(* Fresh-variable supply for gr(g, I) steps; canonicalization renames
   them away immediately, so a global counter is fine. *)
let fresh_counter = ref 0

let fresh_var () =
  incr fresh_counter;
  Cq.Var (Printf.sprintf "f%d" !fresh_counter)

(* Rewritings of one atom [g] of query [q] (PerfectRef's gr function). *)
let atom_rewritings idx q g =
  let bound = function
    | Cq.Const _ -> true
    | Cq.Var v -> Cq.is_bound q v
  in
  let basic_atom b t = Vabox.atom_of_basic b t ~fresh:(fresh_var ()) in
  match Vabox.split_pred g.Cq.pred, g.Cq.args with
  | Some (`Concept, a), [ t ] ->
    List.map
      (fun b -> basic_atom b t)
      (Option.value ~default:[] (Hashtbl.find_opt idx.concept_into a))
  | Some (`Role, p), [ t1; t2 ] ->
    let via_roles =
      List.map
        (fun q1 ->
          match q1 with
          | Syntax.Direct p' -> Cq.atom (Vabox.role_pred p') [ t1; t2 ]
          | Syntax.Inverse p' -> Cq.atom (Vabox.role_pred p') [ t2; t1 ])
        (Option.value ~default:[] (Hashtbl.find_opt idx.role_into p))
    in
    let via_exists =
      if not (bound t2) then
        List.map
          (fun b -> basic_atom b t1)
          (Option.value ~default:[]
             (Hashtbl.find_opt idx.exists_into (Syntax.Direct p)))
      else []
    in
    let via_exists_inv =
      if not (bound t1) then
        List.map
          (fun b -> basic_atom b t2)
          (Option.value ~default:[]
             (Hashtbl.find_opt idx.exists_into (Syntax.Inverse p)))
      else []
    in
    via_roles @ via_exists @ via_exists_inv
  | Some (`Attr, u), [ t1; t2 ] ->
    let via_attrs =
      List.map
        (fun v -> Cq.atom (Vabox.attr_pred v) [ t1; t2 ])
        (Option.value ~default:[] (Hashtbl.find_opt idx.attr_into u))
    in
    let via_domain =
      if not (bound t2) then
        List.map
          (fun b -> basic_atom b t1)
          (Option.value ~default:[] (Hashtbl.find_opt idx.attr_domain_into u))
      else []
    in
    via_attrs @ via_domain
  | _ -> []  (* non-ontology atom (e.g. database relation): never rewritten *)

(* The reduce step: unify two body atoms when a most general unifier
   exists that never eliminates an answer variable. *)
let reduce_steps q =
  let answer v = List.mem v q.Cq.answer_vars in
  (* follow binding chains to the representative; bindings are acyclic
     by construction (a variable is only ever bound to its class
     representative or a constant) *)
  let rec resolve subst t =
    match t with
    | Cq.Var v -> (
      match Cq.Subst.find_opt v subst with
      | Some t' -> resolve subst t'
      | None -> t)
    | Cq.Const _ -> t
  in
  let unify_terms subst t1 t2 =
    match resolve subst t1, resolve subst t2 with
    | Cq.Const c1, Cq.Const c2 -> if c1 = c2 then Some subst else None
    | Cq.Var v1, Cq.Var v2 when v1 = v2 -> Some subst
    | Cq.Var v1, Cq.Var v2 ->
      if answer v1 && answer v2 then None (* never merge two answer vars *)
      else if answer v2 then Some (Cq.Subst.add v1 (Cq.Var v2) subst)
      else Some (Cq.Subst.add v2 (Cq.Var v1) subst)
    | Cq.Var v, (Cq.Const _ as c) | (Cq.Const _ as c), Cq.Var v ->
      if answer v then None else Some (Cq.Subst.add v c subst)
  in
  let unify_atoms a b =
    if a.Cq.pred <> b.Cq.pred || List.length a.Cq.args <> List.length b.Cq.args
    then None
    else
      List.fold_left2
        (fun acc t1 t2 ->
          match acc with None -> None | Some s -> unify_terms s t1 t2)
        (Some Cq.Subst.empty) a.Cq.args b.Cq.args
  in
  let atoms = Array.of_list q.Cq.body in
  let n = Array.length atoms in
  let results = ref [] in
  for i = 0 to n - 1 do
    for j = i + 1 to n - 1 do
      match unify_atoms atoms.(i) atoms.(j) with
      | Some subst when not (Cq.Subst.is_empty subst) ->
        (* close the substitution so chained bindings land on their
           final representative in one application *)
        let closed = Cq.Subst.map (fun t -> resolve subst t) subst in
        results := Cq.apply closed q :: !results
      | Some _ | None -> ()
    done
  done;
  !results

(* ------------------------------------------------------------------ *)
(* The saturation loop                                                 *)
(* ------------------------------------------------------------------ *)

type stats = {
  generated : int;   (** candidate CQs produced during saturation *)
  iterations : int;  (** worklist rounds *)
  output_size : int; (** disjuncts after minimization *)
}

let saturate idx ucq =
  let module Qset = Set.Make (struct
    type t = Cq.t

    let compare = Cq.compare
  end) in
  let seen = ref Qset.empty in
  let queue = Queue.create () in
  let generated = ref 0 in
  let iterations = ref 0 in
  let push q =
    let q = canonicalize q in
    incr generated;
    if not (Qset.mem q !seen) then begin
      seen := Qset.add q !seen;
      Queue.add q queue
    end
  in
  List.iter push ucq;
  while not (Queue.is_empty queue) do
    incr iterations;
    let q = Queue.pop queue in
    (* (a) PI application to every atom *)
    List.iter
      (fun g ->
        List.iter
          (fun g' ->
            let body =
              List.map (fun a -> if Cq.equal_atom a g then g' else a) q.Cq.body
            in
            push { q with Cq.body })
          (atom_rewritings idx q g))
      q.Cq.body;
    (* (b) reduce *)
    List.iter push (reduce_steps q)
  done;
  let all = Qset.elements !seen in
  (all, { generated = !generated; iterations = !iterations; output_size = 0 })

(* ------------------------------------------------------------------ *)
(* Prepared rule bases                                                  *)
(* ------------------------------------------------------------------ *)

(** A prepared rewriter: the normalization and rule-base indexing of a
    TBox, computed once and reused across queries ([Engine] prepares
    once per engine).  [perfect_ref] / [presto_ref] re-prepare on every
    call — fine for one-shot CLI use and the oracles. *)
type prepared = {
  idx : pi_index;
  name : string;  (** "perfectref" or "presto", for logs and stats *)
}

(* Registered eagerly at module initialization (single-threaded), so no
   lazy forcing can race across domains on the hot path. *)
let m_generated = Obs.counter "obda_rewrite_generated_total"

let m_ucq_disjuncts =
  Obs.histogram ~buckets:Obs.Histogram.size_buckets "obda_rewrite_ucq_disjuncts"

(** [prepare tbox] — the told (vanilla PerfectRef) rule base. *)
let prepare tbox =
  Obs.span "rewrite.prepare" (fun () ->
      { idx = index_told (normalize tbox); name = "perfectref" })

(** [prepare_presto tbox] — the classified (Presto-style) rule base;
    classification happens here, once. *)
let prepare_presto tbox =
  Obs.span "rewrite.prepare" (fun () ->
      { idx = index_classified (normalize tbox); name = "presto" })

(** [expand prepared ucq] — the saturation of [ucq] under the prepared
    rule base, unminimized: every distinct canonical CQ the rule base
    reaches.  Counts the candidates it generated. *)
let expand prepared ucq =
  let all, stats = saturate prepared.idx ucq in
  Obs.Counter.incr ~by:stats.generated m_generated;
  (all, stats)

(** [record prepared stats out] logs and observes [out], the final UCQ
    of one rewriting, and returns it with [stats] completed. *)
let record prepared stats out =
  let n = List.length out in
  Log.debug (fun m ->
      m "%s: %d disjuncts kept of %d generated in %d rounds" prepared.name n
        stats.generated stats.iterations);
  Obs.Histogram.observe m_ucq_disjuncts (float_of_int n);
  (out, { stats with output_size = n })

(** [apply prepared ucq] saturates [ucq] under the prepared rule base
    and minimizes the result: the ontology-level rewriting of the
    one-shot oracles below.  Query answering and the consistency check
    go through [Engine.compile], which minimizes once after unfolding
    instead. *)
let apply prepared ucq =
  Obs.span "rewrite" (fun () ->
      let all, stats = expand prepared ucq in
      record prepared stats (Cq.minimize_ucq all))

(** [perfect_ref tbox ucq] computes the perfect rewriting of [ucq]
    w.r.t. the positive inclusions of [tbox] (qualified existentials are
    normalized away first).  Returns the minimized UCQ and saturation
    statistics. *)
let perfect_ref tbox ucq = apply (prepare tbox) ucq

(** [presto_ref tbox ucq] — same saturation but over the *classified*
    rule base: every entailed PI is available as a single step.  The
    output UCQ is logically equivalent to [perfect_ref]'s (property
    tested).  A reference implementation only: it reaches the same
    fixpoint from more candidates and prepares slower, so serving runs
    PerfectRef (ablation A4, [bench rewrite]). *)
let presto_ref tbox ucq = apply (prepare_presto tbox) ucq
