(** The implementations under differential test, behind uniform
    interfaces.

    Four classification subjects (the digraph classifier, the naive
    saturation baseline, the consequence-based simulation, the ALCHI
    tableau oracle), two KB-consistency subjects ([Engine.consistent]'s
    compiled violation queries vs. the chase) and six certain-answer subjects (PerfectRef
    and Presto compiled to SQL, the bounded chase, the naive and
    cost-based/indexed Cq evaluators over the same rewriting, and the
    cached serving path).

    Every subject answers with a three-valued {!verdict}: resource
    exhaustion (tableau budget, chase overflow) and *documented*
    incompletenesses (CB computes no property hierarchy and is only
    guaranteed complete on positive TBoxes, see [Baselines.Cb]) map to
    [Unknown], never to a fake yes/no — the runner only reports a
    disagreement between definite verdicts. *)

open Dllite

type verdict =
  | Yes
  | No
  | Unknown of string  (** the subject cannot answer; carries the reason *)

let verdict_of_bool b = if b then Yes else No

let string_of_verdict = function
  | Yes -> "yes"
  | No -> "no"
  | Unknown reason -> "unknown (" ^ reason ^ ")"

(* ------------------------- classification -------------------------- *)

type classifier = {
  name : string;
  subsumes : Syntax.expr -> Syntax.expr -> verdict;
  is_unsat : Syntax.expr -> verdict;
}

let quonto tbox =
  let cls = Quonto.Classify.classify tbox in
  {
    name = "quonto";
    subsumes = (fun e1 e2 -> verdict_of_bool (Quonto.Classify.subsumes cls e1 e2));
    is_unsat = (fun e -> verdict_of_bool (Quonto.Classify.is_unsat cls e));
  }

let naive tbox =
  let n = Baselines.Naive.classify tbox in
  {
    name = "naive";
    subsumes = (fun e1 e2 -> verdict_of_bool (Baselines.Naive.subsumes n e1 e2));
    is_unsat = (fun e -> verdict_of_bool (Baselines.Naive.is_unsat n e));
  }

(* CB participates only where its contract promises completeness: the
   concept sort of all-positive TBoxes.  It computes no property
   hierarchy, and its incoherence propagation is weaker than
   computeUnsat (e.g. it never derives that an empty role has an empty
   inverse), so negative inclusions put the whole TBox out of scope. *)
let cb tbox =
  let all_positive = Tbox.negative_inclusions tbox = [] in
  let c = Baselines.Cb.classify tbox in
  let concept_sort = function Syntax.E_concept _ -> true | _ -> false in
  let guarded es k =
    if not all_positive then Unknown "cb: negative inclusions out of scope"
    else if not (List.for_all concept_sort es) then
      Unknown "cb: no property hierarchy"
    else k ()
  in
  {
    name = "cb";
    subsumes =
      (fun e1 e2 ->
        guarded [ e1; e2 ] (fun () -> verdict_of_bool (Baselines.Cb.subsumes c e1 e2)));
    is_unsat =
      (fun e -> guarded [ e ] (fun () -> verdict_of_bool (Baselines.Cb.is_unsat c e)));
  }

let oracle ?budget tbox =
  let o = Owlfrag.Oracle.of_tbox tbox in
  let wrap f =
    try verdict_of_bool (f ())
    with Owlfrag.Tableau.Budget_exhausted -> Unknown "oracle: tableau budget exhausted"
  in
  {
    name = "oracle";
    subsumes = (fun e1 e2 -> wrap (fun () -> Owlfrag.Oracle.subsumes ?budget o e1 e2));
    is_unsat = (fun e -> wrap (fun () -> Owlfrag.Oracle.is_unsat ?budget o e));
  }

(* --------------------------- fault injection ------------------------ *)

(** Synthetic bugs for exercising the harness itself: a subject built
    with a fault must disagree with the healthy ones on some TBox, and
    the shrinker must reduce any such TBox to a tiny witness. *)
type fault =
  | No_fault
  | Drop_inverse_role_axioms
      (** forget every positive role inclusion that mentions an inverse
          role — the classic bug class the digraph encoding's
          inverse-component arcs exist to prevent *)

let fault_of_string = function
  | "none" -> Some No_fault
  | "drop-inverse" -> Some Drop_inverse_role_axioms
  | _ -> None

let string_of_fault = function
  | No_fault -> "none"
  | Drop_inverse_role_axioms -> "drop-inverse"

let apply_fault fault tbox =
  match fault with
  | No_fault -> tbox
  | Drop_inverse_role_axioms ->
    Tbox.filter
      (function
        | Syntax.Role_incl (Syntax.Inverse _, Syntax.R_role _)
        | Syntax.Role_incl (_, Syntax.R_role (Syntax.Inverse _)) -> false
        | _ -> true)
      tbox

(** [faulty fault tbox] — the digraph classifier run on a sabotaged
    copy of [tbox], posing as a fifth independent implementation. *)
let faulty fault tbox =
  let cls = Quonto.Classify.classify (apply_fault fault tbox) in
  {
    name = "quonto[" ^ string_of_fault fault ^ "]";
    subsumes = (fun e1 e2 -> verdict_of_bool (Quonto.Classify.subsumes cls e1 e2));
    is_unsat = (fun e -> verdict_of_bool (Quonto.Classify.is_unsat cls e));
  }

(* --------------------------- consistency ---------------------------- *)

type consistency_subject = {
  c_name : string;
  consistent : Tbox.t -> Abox.t -> verdict;
}

let rewrite_consistency =
  {
    c_name = "rewrite-consistency";
    consistent =
      (fun tbox abox ->
        verdict_of_bool (Obda.Engine.consistent (Obda.Engine.of_abox tbox abox)));
  }

let chase_consistency =
  {
    c_name = "chase-consistency";
    consistent =
      (fun tbox abox ->
        try verdict_of_bool (not (Obda.Chase.violates_ni tbox abox))
        with Obda.Chase.Overflow -> Unknown "chase: overflow");
  }

let consistency_subjects = [ rewrite_consistency; chase_consistency ]

(* -------------------------- certain answers ------------------------- *)

(** A certain-answer result: a canonical (sorted, deduplicated) set of
    tuples, or [Unknown]. *)
type answers =
  | Tuples of string list list
  | A_unknown of string

type answer_subject = {
  a_name : string;
  answers : Tbox.t -> Abox.t -> Obda.Cq.t -> answers;
}

let canon tuples = List.sort_uniq compare tuples

let string_of_answers = function
  | Tuples tuples ->
    "{"
    ^ String.concat "; " (List.map (fun t -> "(" ^ String.concat ", " t ^ ")") tuples)
    ^ "}"
  | A_unknown reason -> "unknown (" ^ reason ^ ")"

let sql_path name rewriter =
  {
    a_name = name;
    answers =
      (fun tbox abox q ->
        let rewritten, _stats = rewriter tbox [ q ] in
        let stmt = Obda.Sql.of_ucq rewritten in
        Tuples (canon (Obda.Sql.eval (Obda.Vabox.database_of_abox abox) stmt)));
  }

let perfectref_sql = sql_path "perfectref-sql" Obda.Rewrite.perfect_ref
let presto_sql = sql_path "presto-sql" Obda.Rewrite.presto_ref

let chase_answers =
  {
    a_name = "chase";
    answers =
      (fun tbox abox q ->
        try Tuples (canon (Obda.Chase.certain_answers tbox abox q))
        with Obda.Chase.Overflow -> A_unknown "chase: overflow");
  }

(* The two Cq evaluators over the same PerfectRef rewriting: the
   original backtracking scan ([Cq.Naive], the oracle) against the
   cost-based executor (selectivity-ordered plans + adaptive joins over
   the database's persistent pattern indexes).  Because both share the
   rewriting, any disagreement between them is an execution bug, not a
   rewriting one — this is the lockdown for the indexed path. *)
let naive_answers =
  {
    a_name = "perfectref-naive";
    answers =
      (fun tbox abox q ->
        let rewritten, _stats = Obda.Rewrite.perfect_ref tbox [ q ] in
        let db = Obda.Vabox.database_of_abox abox in
        Tuples
          (canon (Obda.Cq.Naive.evaluate_ucq ~facts:(Obda.Database.facts db) rewritten)));
  }

let indexed_answers =
  {
    a_name = "indexed";
    answers =
      (fun tbox abox q ->
        let rewritten, _stats = Obda.Rewrite.perfect_ref tbox [ q ] in
        let db = Obda.Vabox.database_of_abox abox in
        Tuples
          (canon
             (Obda.Cq.evaluate_ucq ~source:(Obda.Database.source db) rewritten)));
  }

(* The served path: one process-wide Service shared across fuzz cases,
   so the fingerprint-keyed rewrite cache carries entries from case to
   case — exactly the reuse whose soundness is under test.  Every case
   goes through the wire front door as text (the TBox payload, the ABox
   as FACTS lines over its tagged relations, the query).  The facts
   arrive in two loads with an ask between them, so the first ask after
   the second load refreshes the cached answer by delta over its rows;
   the subject reports the *warm* (answer-cache) result, which must
   agree with the independently computed subjects.  Sessions are
   per-domain (the fuzzer runs cases on a domain pool) and reset
   per case; the service's own mutex handles the rest. *)
let service_answers =
  let service = lazy (Server.Service.create ~config:{ Server.Service.Config.default with lru = 64 } ()) in
  {
    a_name = "service";
    answers =
      (fun tbox abox q ->
        let t = Lazy.force service in
        let session = "fuzz-" ^ string_of_int (Domain.self () :> int) in
        let send request =
          match Server.Service.handle t request with
          | Server.Wire.Ok lines -> lines
          | Server.Wire.Err e -> failwith ("service: " ^ e)
          | Server.Wire.Busy -> failwith "service: busy"
        in
        let load kind payload =
          ignore (send (Server.Wire.Load { session; kind; payload }))
        in
        Server.Service.drop_session t ~session;
        load Server.Wire.K_tbox (Server.Service.tbox_payload tbox);
        let facts =
          List.map
            (fun a ->
              let rel, row = Obda.Vabox.fact_of_assertion a in
              Server.Service.fact_line rel row)
            (Abox.assertions abox)
        in
        let half = List.length facts / 2 in
        let query =
          Server.Wire.Inline
            (Obda.Qparse.query_text ~signature:(Tbox.signature tbox) q)
        in
        let ask () = send (Server.Wire.Ask { session; query }) in
        load Server.Wire.K_facts (List.filteri (fun i _ -> i < half) facts);
        ignore (ask ());
        load Server.Wire.K_facts (List.filteri (fun i _ -> i >= half) facts);
        ignore (ask ());
        (* [render_tuple]'s inverse over generated constants, which
           hold no commas or surrounding blanks *)
        let tuple = function
          | "()" -> []
          | line -> List.map String.trim (String.split_on_char ',' line)
        in
        Tuples (canon (List.map tuple (ask ()))));
  }

let answer_subjects =
  [
    perfectref_sql; presto_sql; chase_answers; naive_answers; indexed_answers;
    service_answers;
  ]
