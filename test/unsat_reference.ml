(* The reference [computeUnsat] fixpoint: for the witness rule, two
   forward searches over the whole digraph per qualified axiom
   [B ⊑ ∃Q.A]; for the seeds, two backward searches per disjointness,
   unmemoized.  Cost O(qualified × (V + E)), so it lives with the
   tests, as the reference the [Unsat.compute = reference] property
   compares against node for node.

   [compute enc] returns the flags: [flags.(n)] iff node [n] is
   unsatisfiable. *)

open Dllite
module Encoding = Quonto.Encoding

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
  (* Seeds: reflexive-ancestor intersections of each disjointness. *)
  List.iter
    (fun (n1, n2) ->
      let a1 = Graphlib.Graph.ancestors g n1 in
      let a2 = Graphlib.Graph.ancestors g n2 in
      Graphlib.Bitvec.iter_set (Graphlib.Bitvec.inter ~a:a1 ~b:a2) mark)
    enc.Encoding.negative_pairs;
  (* Witness-inconsistency rule: for each axiom B ⊑ ∃Q.A, check whether
     the type sources A and ∃Q⁻ of the created witness cross a
     disjointness.  The descendant sets are static (they live in the
     fixed positive graph), so this check runs once; if one of the
     sources *becomes* unsatisfiable later, the predecessor and
     qualifier rules below catch B anyway. *)
  List.iter
    (fun (nb, q, a) ->
      let na = Encoding.node enc (Syntax.E_concept (Syntax.Atomic a)) in
      let nrange =
        Encoding.node enc (Syntax.E_concept (Syntax.Exists (Syntax.role_inverse q)))
      in
      let da = Graphlib.Graph.reachable_from g na in
      let dr = Graphlib.Graph.reachable_from g nrange in
      let crosses (n1, n2) =
        (Graphlib.Bitvec.get da n1 && Graphlib.Bitvec.get dr n2)
        || (Graphlib.Bitvec.get dr n1 && Graphlib.Bitvec.get da n2)
      in
      if List.exists crosses enc.Encoding.negative_pairs then mark nb)
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
  flags
