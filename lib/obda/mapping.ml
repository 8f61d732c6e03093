(** The mapping layer: the "semantic correspondence between the unified
    view of the domain and the data stored at the sources" (Section 1).

    A mapping assertion is GAV-style:
    {v  Φ(x⃗)  ⇝  S(x⃗')  v}
    where [Φ] is a conjunctive query over the database schema and [S] a
    named ontology predicate whose argument template uses [Φ]'s
    variables (or constants).  Two operational modes are provided:

    - [unfold]: rewrite an ontology-level UCQ into a database-level UCQ
      (virtual ABox, the production OBDA path);
    - [materialize]: evaluate every mapping and produce the ABox
      explicitly (useful for debugging and for the chase oracle).

    [rows] reads one relation of the virtual ABox without building the
    rest: the integrity check's view of the retrieved facts. *)

open Dllite

type head =
  | Concept_head of string * Cq.term                    (** A(t) *)
  | Role_head of string * Cq.term * Cq.term             (** P(t1, t2) *)
  | Attr_head of string * Cq.term * Cq.term             (** U(t, v) *)

type assertion = {
  source : Cq.t;   (** CQ over the database schema; its answer variables
                       are the ones usable in the head template *)
  target : head;
}

type t = assertion list

let head_vars = function
  | Concept_head (_, t) -> [ t ]
  | Role_head (_, t1, t2) | Attr_head (_, t1, t2) -> [ t1; t2 ]

(** [make ~source ~target] checks that every head variable is an answer
    variable of the source query, and that head variables are pairwise
    distinct (the unfolding unifier relies on linear head templates — a
    duplicate can always be expressed with an equality join in the
    source query instead). *)
let make ~source ~target =
  let vars =
    List.filter_map
      (function Cq.Var v -> Some v | Cq.Const _ -> None)
      (head_vars target)
  in
  List.iter
    (fun v ->
      if not (List.mem v source.Cq.answer_vars) then
        invalid_arg
          (Printf.sprintf "Mapping.make: head variable %s not answered by source" v))
    vars;
  if List.length vars <> List.length (List.sort_uniq compare vars) then
    invalid_arg "Mapping.make: head variables must be distinct";
  { source; target }

let target_pred = function
  | Concept_head (a, _) -> Vabox.concept_pred a
  | Role_head (p, _, _) -> Vabox.role_pred p
  | Attr_head (u, _, _) -> Vabox.attr_pred u

let target_args = function
  | Concept_head (_, t) -> [ t ]
  | Role_head (_, t1, t2) | Attr_head (_, t1, t2) -> [ t1; t2 ]

(* ------------------------------------------------------------------ *)
(* Unfolding                                                           *)
(* ------------------------------------------------------------------ *)

(* [rename_apart counter q] renames every variable of [q] with a tag
   drawn from [counter], which is local to one [unfold] call: tags are
   distinct within one unfolding, and an unfolding does not depend on
   what was unfolded before it or on another domain. *)
let rename_apart counter q =
  incr counter;
  let tag = Printf.sprintf "m%d_" !counter in
  let subst =
    List.fold_left
      (fun s v -> Cq.Subst.add v (Cq.Var (tag ^ v)) s)
      Cq.Subst.empty (Cq.vars q)
  in
  (Cq.apply subst q, fun t -> Cq.apply_term subst t)

(** [unfold mappings q] rewrites the ontology-level CQ [q] into a
    database-level UCQ: every ontology atom is replaced by the source
    query of a matching mapping (one disjunct per combination).  Atoms
    with no matching mapping kill their disjunct (they can never be
    satisfied by the virtual ABox).  A disjunct in which a head constant
    binds an answer variable is dropped too: a CQ has no way to answer a
    constant. *)
let unfold (mappings : t) (q : Cq.t) : Cq.ucq =
  let counter = ref 0 in
  (* per ontology atom: the list of (renamed source body, unifier) *)
  let expansions_of atom =
    List.filter_map
      (fun m ->
        if target_pred m.target <> atom.Cq.pred then None
        else begin
          let renamed_source, rename = rename_apart counter m.source in
          let head_args = List.map rename (target_args m.target) in
          if List.length head_args <> List.length atom.Cq.args then None
          else
            (* unify head template against the query atom's arguments:
               head variables get bound to query terms; head constants
               must match query constants, and bind query variables *)
            let rec go subst pairs =
              match pairs with
              | [] -> Some subst
              | (Cq.Var hv, qt) :: rest -> (
                match Cq.Subst.find_opt hv subst with
                | Some t when Cq.equal_term t qt -> go subst rest
                | Some _ -> None
                | None -> go (Cq.Subst.add hv qt subst) rest)
              | (Cq.Const hc, Cq.Const qc) :: rest ->
                if hc = qc then go subst rest else None
              | ((Cq.Const _ as hc), (Cq.Var _ as qv)) :: rest ->
                (* query variable forced to the head constant *)
                go subst ((qv, hc) :: rest)
            in
            match go Cq.Subst.empty (List.combine head_args atom.Cq.args) with
            | None -> None
            | Some subst ->
              (* [subst] maps renamed head variables to query terms and
                 may map query variables to constants (reverse bindings
                 recorded by flipping the pair); one step closes it,
                 since a query variable only ever maps to a constant *)
              let subst = Cq.Subst.map (Cq.apply_term subst) subst in
              Some (List.map (Cq.apply_atom subst) renamed_source.Cq.body, subst)
        end)
      mappings
  in
  (* [prefix] holds the database atoms chosen so far, reversed; an
     expansion's reverse bindings apply to it as well as to the atoms
     still to expand *)
  let rec expand prefix body =
    match body with
    | [] -> [ List.rev prefix ]
    | atom :: rest when Option.is_some (Vabox.split_pred atom.Cq.pred) ->
      List.concat_map
        (fun (src_atoms, subst) ->
          let bind = List.map (Cq.apply_atom subst) in
          expand (List.rev_append src_atoms (bind prefix)) (bind rest))
        (expansions_of atom)
    | atom :: rest -> expand (atom :: prefix) rest
  in
  List.filter_map
    (fun body ->
      (* answer variables must survive the expansion *)
      let candidate = { Cq.answer_vars = q.Cq.answer_vars; Cq.body = body } in
      if
        List.for_all
          (fun v ->
            List.exists
              (fun a -> List.exists (Cq.equal_term (Cq.Var v)) a.Cq.args)
              body)
          q.Cq.answer_vars
      then Some candidate
      else None)
    (expand [] q.Cq.body)

(** [unfold_ucq mappings ucq] unfolds every disjunct.  The result is
    not minimized: [Engine.compile] minimizes once, after unfolding. *)
let unfold_ucq mappings ucq = List.concat_map (unfold mappings) ucq

(* ------------------------------------------------------------------ *)
(* Materialization                                                     *)
(* ------------------------------------------------------------------ *)

(** [retrieve db m] — the rows mapping [m] retrieves from [db]: its
    source query evaluated and projected through the head template, one
    row of [target_pred m.target] per tuple. *)
let retrieve db m =
  let needed_vars =
    List.filter_map
      (function Cq.Var v -> Some v | Cq.Const _ -> None)
      (target_args m.target)
    |> List.sort_uniq compare
  in
  let proj = { m.source with Cq.answer_vars = needed_vars } in
  List.map
    (fun tuple ->
      let env = List.combine needed_vars tuple in
      List.map
        (function Cq.Const c -> c | Cq.Var v -> List.assoc v env)
        (target_args m.target))
    (Cq.evaluate ~source:(Database.source db) proj)

(** [rows mappings db pred] — the virtual ABox relation [pred]: the rows
    every mapping onto [pred] retrieves from [db], unsaturated. *)
let rows mappings db pred =
  List.concat_map
    (fun m -> if target_pred m.target = pred then retrieve db m else [])
    mappings

(** [materialize mappings db] evaluates every mapping over [db] and
    collects the resulting ABox (the explicit virtual ABox). *)
let materialize (mappings : t) db =
  List.fold_left
    (fun abox m ->
      List.fold_left
        (fun abox row ->
          let assertion =
            match m.target, row with
            | Concept_head (a, _), [ c ] -> Abox.Concept_assert (a, c)
            | Role_head (p, _, _), [ c1; c2 ] -> Abox.Role_assert (p, c1, c2)
            | Attr_head (u, _, _), [ c; v ] -> Abox.Attr_assert (u, c, v)
            | _ -> invalid_arg "Mapping.materialize: row arity"
          in
          Abox.add assertion abox)
        abox (retrieve db m))
    Abox.empty mappings
