(** The [computeUnsat] algorithm (Section 5 of the paper): compute the
    set of unsatisfiable basic concepts, basic roles and attributes of a
    DL-Lite_R TBox from its digraph representation, without a closure.

    The reflexive ancestor set [anc(S)] of each distinct endpoint [S] of
    a syntactic disjointness is computed once (one backward search per
    endpoint); both rules below read those sets.

    Seeds — for every disjointness [S1 ⊑ ¬S2], every node in
    [anc(S1) ∩ anc(S2)] is unsatisfiable.  Witness rule — for an axiom
    [B ⊑ ∃Q.A], the created witness carries *both* type sources [A] and
    [∃Q⁻]; if some disjointness [S1 ⊑ ¬S2] has [A ∈ anc(S1)] and
    [∃Q⁻ ∈ anc(S2)], or the same with [A] and [∃Q⁻] swapped, the witness
    is contradictory and [B] is unsatisfiable even though [A] and [∃Q⁻]
    may each be satisfiable alone (e.g. [∃p⁻ ⊑ ¬C, ∃p⁻ ⊑ ∃p.C]).  With
    no disjointness, no witness can cross one and the rule is skipped.

    The seeds are then propagated to a fixpoint under the rules the paper
    leaves to the refinement step:
    - if [S] is unsatisfiable, every predecessor of [S] is;
    - the four nodes of a role stand or fall together:
      [P], [P⁻], [∃P], [∃P⁻] are equi-satisfiable;
    - an attribute [U] and its domain [δ(U)] are equi-satisfiable;
    - for an axiom [B ⊑ ∃Q.A]: if [A] is unsatisfiable then so is [B]
      (the [Q]-unsatisfiable case follows from the [(B, ∃Q)] arc and the
      component rule).  The witness rule runs once, before propagation:
      the ancestor sets live in the fixed positive graph, and if a
      witness source *becomes* unsatisfiable later, the predecessor and
      qualifier rules catch [B] anyway. *)

open Dllite

type t = {
  encoding : Encoding.t;
  flags : bool array;  (* flags.(n) <=> node n is unsatisfiable *)
}

(** [compute enc] runs [computeUnsat] on a built encoding. *)
let compute (enc : Encoding.t) =
  let g = Encoding.graph enc in
  let n = Encoding.node_count enc in
  let flags = Array.make n false in
  let queue = Queue.create () in
  let mark v =
    if not flags.(v) then begin
      flags.(v) <- true;
      Queue.add v queue
    end
  in
  let ancestors = Hashtbl.create 16 in
  let anc v =
    match Hashtbl.find_opt ancestors v with
    | Some a -> a
    | None ->
      let a = Graphlib.Graph.ancestors g v in
      Hashtbl.add ancestors v a;
      a
  in
  let disjoint =
    List.map (fun (n1, n2) -> (anc n1, anc n2)) enc.Encoding.negative_pairs
  in
  List.iter
    (fun (a1, a2) -> Graphlib.Bitvec.iter_set (Graphlib.Bitvec.inter ~a:a1 ~b:a2) mark)
    disjoint;
  if disjoint <> [] then
    List.iter
      (fun (nb, q, a) ->
        let na = Encoding.node enc (Syntax.E_concept (Syntax.Atomic a)) in
        let nrange =
          Encoding.node enc (Syntax.E_concept (Syntax.Exists (Syntax.role_inverse q)))
        in
        let crosses (a1, a2) =
          (Graphlib.Bitvec.get a1 na && Graphlib.Bitvec.get a2 nrange)
          || (Graphlib.Bitvec.get a1 nrange && Graphlib.Bitvec.get a2 na)
        in
        if List.exists crosses disjoint then mark nb)
      enc.Encoding.qualified_axioms;
  (* Index qualified axioms by qualifier name for the fourth rule. *)
  let by_qualifier = Hashtbl.create 16 in
  List.iter
    (fun (nb, _q, a) ->
      let prev = Option.value ~default:[] (Hashtbl.find_opt by_qualifier a) in
      Hashtbl.replace by_qualifier a (nb :: prev))
    enc.Encoding.qualified_axioms;
  (* Propagate to fixpoint. *)
  let partners v =
    match Encoding.expr enc v with
    | Syntax.E_role q ->
      let p = Syntax.role_name q in
      [
        Encoding.node enc (Syntax.E_role (Syntax.Direct p));
        Encoding.node enc (Syntax.E_role (Syntax.Inverse p));
        Encoding.node enc (Syntax.E_concept (Syntax.Exists (Syntax.Direct p)));
        Encoding.node enc (Syntax.E_concept (Syntax.Exists (Syntax.Inverse p)));
      ]
    | Syntax.E_concept (Syntax.Exists q) ->
      [ Encoding.node enc (Syntax.E_role q) ]
    | Syntax.E_concept (Syntax.Attr_domain u) -> [ Encoding.node enc (Syntax.E_attr u) ]
    | Syntax.E_attr u ->
      [ Encoding.node enc (Syntax.E_concept (Syntax.Attr_domain u)) ]
    | Syntax.E_concept (Syntax.Atomic _) -> []
  in
  while not (Queue.is_empty queue) do
    let v = Queue.pop queue in
    List.iter mark (Graphlib.Graph.predecessors g v);
    List.iter mark (partners v);
    (match Encoding.expr enc v with
     | Syntax.E_concept (Syntax.Atomic a) ->
       List.iter mark (Option.value ~default:[] (Hashtbl.find_opt by_qualifier a))
     | Syntax.E_concept (Syntax.Exists _ | Syntax.Attr_domain _)
     | Syntax.E_role _ | Syntax.E_attr _ -> ())
  done;
  { encoding = enc; flags }

(** [is_unsat_node t v] tests node [v]. *)
let is_unsat_node t v = t.flags.(v)

(** [is_unsat t e] tests an expression; expressions outside the TBox
    signature are trivially satisfiable. *)
let is_unsat t e =
  match Encoding.node_opt t.encoding e with
  | Some v -> t.flags.(v)
  | None -> false

(** [unsat_exprs t] lists all unsatisfiable expressions. *)
let unsat_exprs t =
  let acc = ref [] in
  Array.iteri
    (fun v b -> if b then acc := Encoding.expr t.encoding v :: !acc)
    t.flags;
  List.rev !acc

(** [count t] is the number of unsatisfiable nodes. *)
let count t = Array.fold_left (fun acc b -> if b then acc + 1 else acc) 0 t.flags

(** [tbox_satisfiable t] — a DL-Lite TBox alone is always satisfiable
    (the empty model), but it is *coherent* iff no named predicate is
    unsatisfiable; this is the design-quality check of Section 5. *)
let coherent t = count t = 0
