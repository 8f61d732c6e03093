(** Bounded chase of an ABox under the positive inclusions of a DL-Lite
    TBox: the canonical-model construction, materialized to a finite
    depth.

    Used as the *independent oracle* for certain-answer tests: for a CQ
    [q] with [n] atoms, any homomorphism of [q] into the (possibly
    infinite) canonical model touches labelled nulls at distance at most
    [n] from the ABox individuals, so chasing to depth [n] and keeping
    only all-named answer tuples computes exactly the certain answers
    that PerfectRef + evaluation must produce. *)

open Dllite

type fact =
  | F_concept of string * string          (* A(t) *)
  | F_role of string * string * string    (* P(t1, t2) *)
  | F_attr of string * string * string    (* U(t, v) *)

module Fact_set = Set.Make (struct
  type t = fact

  let compare = Stdlib.compare
end)

type t = {
  facts : Fact_set.t;
  null_depth : (string, int) Hashtbl.t;  (* labelled null -> creation depth *)
}

let null_prefix = "_:n"
let is_null term = String.length term >= 3 && String.sub term 0 3 = null_prefix

(** Raised when the chase exceeds its labelled-null budget; callers that
    use the chase as a test oracle treat this as "instance too wide to
    check" rather than as a verdict. *)
exception Overflow

(* Membership of a term in a basic concept, under the current facts. *)
let in_basic facts b t =
  match b with
  | Syntax.Atomic a -> Fact_set.mem (F_concept (a, t)) facts
  | Syntax.Exists (Syntax.Direct p) ->
    Fact_set.exists (function F_role (p', t1, _) -> p' = p && t1 = t | _ -> false) facts
  | Syntax.Exists (Syntax.Inverse p) ->
    Fact_set.exists (function F_role (p', _, t2) -> p' = p && t2 = t | _ -> false) facts
  | Syntax.Attr_domain u ->
    Fact_set.exists (function F_attr (u', t', _) -> u' = u && t' = t | _ -> false) facts

let terms_of facts =
  Fact_set.fold
    (fun f acc ->
      match f with
      | F_concept (_, t) -> t :: acc
      | F_role (_, t1, t2) -> t1 :: t2 :: acc
      | F_attr (_, t, _) -> t :: acc)
    facts []
  |> List.sort_uniq compare

(** [run ?max_depth tbox abox] chases [abox] under the positive
    inclusions of [tbox], creating labelled nulls up to [max_depth]
    generations away from the named individuals (default 3). *)
let run ?(max_depth = 3) ?(max_nulls = 2_000) tbox abox =
  Obs.span "chase" @@ fun () ->
  let null_depth = Hashtbl.create 32 in
  let next_null = ref 0 in
  let fresh_null depth =
    if !next_null >= max_nulls then raise Overflow;
    let n = Printf.sprintf "%s%d" null_prefix !next_null in
    incr next_null;
    Hashtbl.replace null_depth n depth;
    n
  in
  let depth_of t =
    if is_null t then Option.value ~default:max_depth (Hashtbl.find_opt null_depth t)
    else 0
  in
  let facts =
    List.fold_left
      (fun acc assertion ->
        match assertion with
        | Abox.Concept_assert (a, c) -> Fact_set.add (F_concept (a, c)) acc
        | Abox.Role_assert (p, c1, c2) -> Fact_set.add (F_role (p, c1, c2)) acc
        | Abox.Attr_assert (u, c, v) -> Fact_set.add (F_attr (u, c, v)) acc)
      Fact_set.empty (Abox.assertions abox)
  in
  let positives = Tbox.positive_inclusions tbox in
  let facts = ref facts in
  let changed = ref true in
  let add f =
    if not (Fact_set.mem f !facts) then begin
      facts := Fact_set.add f !facts;
      changed := true
    end
  in
  (* One chase round: apply every PI everywhere.  Existential rules only
     fire when no witness exists yet (restricted chase) and the source
     term is shallow enough. *)
  let apply_pi ax =
    let members b = List.filter (fun t -> in_basic !facts b t) (terms_of !facts) in
    match ax with
    | Syntax.Concept_incl (b, Syntax.C_basic (Syntax.Atomic a)) ->
      List.iter (fun t -> add (F_concept (a, t))) (members b)
    | Syntax.Concept_incl (b, Syntax.C_basic (Syntax.Exists q)) ->
      List.iter
        (fun t ->
          if
            (not (in_basic !facts (Syntax.Exists q) t))
            && depth_of t < max_depth
          then begin
            let n = fresh_null (depth_of t + 1) in
            match q with
            | Syntax.Direct p -> add (F_role (p, t, n))
            | Syntax.Inverse p -> add (F_role (p, n, t))
          end)
        (members b)
    | Syntax.Concept_incl (b, Syntax.C_basic (Syntax.Attr_domain u)) ->
      List.iter
        (fun t ->
          if
            (not (in_basic !facts (Syntax.Attr_domain u) t))
            && depth_of t < max_depth
          then add (F_attr (u, t, fresh_null (depth_of t + 1))))
        (members b)
    | Syntax.Concept_incl (b, Syntax.C_exists_qual (q, a)) ->
      List.iter
        (fun t ->
          (* witness must be both a Q-successor and in A *)
          let has_witness =
            Fact_set.exists
              (function
                | F_role (p', t1, t2) -> (
                  match q with
                  | Syntax.Direct p ->
                    p' = p && t1 = t && Fact_set.mem (F_concept (a, t2)) !facts
                  | Syntax.Inverse p ->
                    p' = p && t2 = t && Fact_set.mem (F_concept (a, t1)) !facts)
                | _ -> false)
              !facts
          in
          if (not has_witness) && depth_of t < max_depth then begin
            let n = fresh_null (depth_of t + 1) in
            (match q with
             | Syntax.Direct p -> add (F_role (p, t, n))
             | Syntax.Inverse p -> add (F_role (p, n, t)));
            add (F_concept (a, n))
          end)
        (members b)
    | Syntax.Role_incl (q1, Syntax.R_role q2) ->
      let pairs_of = function
        | Syntax.Direct p ->
          Fact_set.fold
            (fun f acc ->
              match f with F_role (p', t1, t2) when p' = p -> (t1, t2) :: acc | _ -> acc)
            !facts []
        | Syntax.Inverse p ->
          Fact_set.fold
            (fun f acc ->
              match f with F_role (p', t1, t2) when p' = p -> (t2, t1) :: acc | _ -> acc)
            !facts []
      in
      List.iter
        (fun (t1, t2) ->
          match q2 with
          | Syntax.Direct p -> add (F_role (p, t1, t2))
          | Syntax.Inverse p -> add (F_role (p, t2, t1)))
        (pairs_of q1)
    | Syntax.Attr_incl (u1, Syntax.A_attr u2) ->
      Fact_set.iter
        (function
          | F_attr (u, t, v) when u = u1 -> add (F_attr (u2, t, v))
          | _ -> ())
        !facts
    | Syntax.Concept_incl (_, Syntax.C_neg _)
    | Syntax.Role_incl (_, Syntax.R_neg _)
    | Syntax.Attr_incl (_, Syntax.A_neg _) -> ()
  in
  while !changed do
    changed := false;
    List.iter apply_pi positives
  done;
  { facts = !facts; null_depth }

(** [facts_fn t] exposes the chased instance as a fact source, tagging
    predicates exactly like [Vabox]. *)
let facts_fn t =
  let table = Hashtbl.create 64 in
  let add pred row =
    let prev = Option.value ~default:[] (Hashtbl.find_opt table pred) in
    Hashtbl.replace table pred (row :: prev)
  in
  Fact_set.iter
    (function
      | F_concept (a, x) -> add (Vabox.concept_pred a) [ x ]
      | F_role (p, x, y) -> add (Vabox.role_pred p) [ x; y ]
      | F_attr (u, x, v) -> add (Vabox.attr_pred u) [ x; v ])
    t.facts;
  fun pred -> Option.value ~default:[] (Hashtbl.find_opt table pred)

(** [certain_answers ?max_depth tbox abox q] — oracle certain answers of
    [q]: evaluate over the chase and keep the tuples built from named
    individuals only. *)
let certain_answers ?max_depth ?max_nulls tbox abox q =
  let depth =
    match max_depth with Some d -> d | None -> List.length q.Cq.body + 1
  in
  let chase = run ~max_depth:depth ?max_nulls tbox abox in
  Cq.Naive.evaluate ~facts:(facts_fn chase) q
  |> List.filter (fun tuple -> not (List.exists is_null tuple))

(** [violates_ni tbox abox] — does the chased instance violate a told
    negative inclusion?  (KB inconsistency oracle.)

    A null's type set is fixed by its creating axiom, so along any
    branch the creating axioms repeat after at most #existential-axioms
    steps; a violation at a deeper null is therefore mirrored by one at
    depth ≤ that bound. *)
let violates_ni tbox abox =
  let existentials =
    List.length
      (List.filter
         (function
           | Syntax.Concept_incl
               (_, (Syntax.C_basic (Syntax.Exists _ | Syntax.Attr_domain _)
                   | Syntax.C_exists_qual _)) -> true
           | _ -> false)
         (Tbox.axioms tbox))
  in
  let chase = run ~max_depth:(existentials + 2) tbox abox in
  let facts = chase.facts in
  let holds b t = in_basic facts b t in
  let role_pairs q =
    match q with
    | Syntax.Direct p ->
      Fact_set.fold
        (fun f acc ->
          match f with F_role (p', t1, t2) when p' = p -> (t1, t2) :: acc | _ -> acc)
        facts []
    | Syntax.Inverse p ->
      Fact_set.fold
        (fun f acc ->
          match f with F_role (p', t1, t2) when p' = p -> (t2, t1) :: acc | _ -> acc)
        facts []
  in
  List.exists
    (fun ax ->
      match ax with
      | Syntax.Concept_incl (b1, Syntax.C_neg b2) ->
        List.exists (fun t -> holds b1 t && holds b2 t) (terms_of facts)
      | Syntax.Role_incl (q1, Syntax.R_neg q2) ->
        let p2 = role_pairs q2 in
        List.exists (fun pr -> List.mem pr p2) (role_pairs q1)
      | Syntax.Attr_incl (u1, Syntax.A_neg u2) ->
        Fact_set.exists
          (function
            | F_attr (u, t, v) when u = u1 -> Fact_set.mem (F_attr (u2, t, v)) facts
            | _ -> false)
          facts
      | Syntax.Concept_incl (_, (Syntax.C_basic _ | Syntax.C_exists_qual _))
      | Syntax.Role_incl (_, Syntax.R_role _)
      | Syntax.Attr_incl (_, Syntax.A_attr _) -> false)
    (Tbox.negative_inclusions tbox)
