(** Full deductive closure of a DL-Lite_R TBox (the extension sketched at
    the end of Section 5): beyond [Phi_T ∪ Omega_T], also derive

    - all entailed *negative* inclusions, and
    - all entailed inclusions with a *qualified existential* right-hand
      side ([B ⊑ ∃Q.A]).

    Entailment conditions (justified by the canonical-model construction
    of DL-Lite; cross-checked against the tableau oracle in the tests):

    [T ⊨ S1 ⊑ ¬S2] iff
      (i)   some disjointness [S1' ⊑ ¬S2'] (or its symmetric variant) has
            [T ⊨ S1 ⊑ S1'] and [T ⊨ S2 ⊑ S2'], or
      (ii)  [S1] or [S2] is unsatisfiable.

    [T ⊨ B ⊑ ∃Q.A] iff
      (i)   [B] is unsatisfiable, or
      (ii)  some axiom [B' ⊑ ∃Q'.A'] has [T ⊨ B ⊑ B'], [T ⊨ Q' ⊑ Q] and
            [T ⊨ A' ⊑ A]  (the created witness is typed [A']), or
      (iii) some basic role [Q'] has [T ⊨ B ⊑ ∃Q'], [T ⊨ Q' ⊑ Q] and
            [T ⊨ ∃Q'⁻ ⊑ A]  (every [Q']-successor is typed [∃Q'⁻]). *)

open Dllite

(** The digraph, the [computeUnsat] fixpoint and a reflexive
    reachability test over the digraph: the materialized closure
    ([of_classification]) or an on-demand search ([Implication]). *)
type t = {
  encoding : Encoding.t;
  unsat : Unsat.t;
  reaches : int -> int -> bool;
}

let of_classification cls =
  {
    encoding = Classify.encoding cls;
    unsat = Classify.unsat cls;
    reaches = Graphlib.Closure.reaches (Classify.closure cls);
  }

(** [compute tbox] classifies and wraps. *)
let compute tbox = of_classification (Classify.classify tbox)

let is_unsat t e = Unsat.is_unsat t.unsat e
let subsumes t = Classify.subsumes_by t.reaches t.encoding t.unsat

(** [entails_disjoint t e1 e2] decides [T ⊨ e1 ⊑ ¬e2].  Besides matching
    a declared disjointness up to subsumption, role (resp. attribute)
    disjointness also follows from disjointness of the [∃Q] (resp.
    [δ(U)]) components: a pair in [Q1 ∩ Q2] would put its first
    component in [∃Q1 ⊓ ∃Q2] and its second in [∃Q1⁻ ⊓ ∃Q2⁻]. *)
let rec entails_disjoint t e1 e2 =
  Encoding.same_sort e1 e2
  && (is_unsat t e1 || is_unsat t e2
      || (let enc = t.encoding in
          let covered n1' n2' =
            (* original disjointness S1' ⊑ ¬S2' as node pair (n1', n2') *)
            let s1' = Encoding.expr enc n1' and s2' = Encoding.expr enc n2' in
            (subsumes t e1 s1' && subsumes t e2 s2')
            || (subsumes t e1 s2' && subsumes t e2 s1')
          in
          List.exists (fun (n1', n2') -> covered n1' n2') enc.Encoding.negative_pairs)
      ||
      match e1, e2 with
      | Syntax.E_role q1, Syntax.E_role q2 ->
        entails_disjoint t
          (Syntax.E_concept (Syntax.Exists q1))
          (Syntax.E_concept (Syntax.Exists q2))
        || entails_disjoint t
             (Syntax.E_concept (Syntax.Exists (Syntax.role_inverse q1)))
             (Syntax.E_concept (Syntax.Exists (Syntax.role_inverse q2)))
      | Syntax.E_attr u1, Syntax.E_attr u2 ->
        entails_disjoint t
          (Syntax.E_concept (Syntax.Attr_domain u1))
          (Syntax.E_concept (Syntax.Attr_domain u2))
      | Syntax.E_concept _, _ | _, Syntax.E_concept _
      | Syntax.E_role _, _ | Syntax.E_attr _, _ -> false)

(** [entails_qualified t b q a] decides [T ⊨ B ⊑ ∃Q.A]. *)
let entails_qualified t b q a =
  let enc = t.encoding in
  let c_b = Syntax.E_concept b in
  let c_a = Syntax.E_concept (Syntax.Atomic a) in
  is_unsat t c_b
  || List.exists
       (fun (nb', q', a') ->
         let b' = Encoding.expr enc nb' in
         subsumes t c_b b'
         && subsumes t (Syntax.E_role q') (Syntax.E_role q)
         && subsumes t (Syntax.E_concept (Syntax.Atomic a')) c_a)
       enc.Encoding.qualified_axioms
  ||
  let signature = Tbox.signature (Encoding.tbox enc) in
  let role_candidates =
    List.concat_map
      (fun p -> [ Syntax.Direct p; Syntax.Inverse p ])
      (Signature.roles signature)
  in
  List.exists
    (fun q' ->
      subsumes t c_b (Syntax.E_concept (Syntax.Exists q'))
      && subsumes t (Syntax.E_role q') (Syntax.E_role q)
      && subsumes t (Syntax.E_concept (Syntax.Exists (Syntax.role_inverse q'))) c_a)
    role_candidates

(** [entails t ax] decides [T ⊨ ax] for an arbitrary DL-Lite_R axiom —
    the *logical implication* service of Section 5, with or without the
    materialized closure, depending on how [t] was built. *)
let entails t = function
  | Syntax.Concept_incl (b, Syntax.C_basic b') ->
    subsumes t (Syntax.E_concept b) (Syntax.E_concept b')
  | Syntax.Concept_incl (b, Syntax.C_neg b') ->
    entails_disjoint t (Syntax.E_concept b) (Syntax.E_concept b')
  | Syntax.Concept_incl (b, Syntax.C_exists_qual (q, a)) -> entails_qualified t b q a
  | Syntax.Role_incl (q, Syntax.R_role q') ->
    subsumes t (Syntax.E_role q) (Syntax.E_role q')
  | Syntax.Role_incl (q, Syntax.R_neg q') ->
    entails_disjoint t (Syntax.E_role q) (Syntax.E_role q')
  | Syntax.Attr_incl (u, Syntax.A_attr u') ->
    subsumes t (Syntax.E_attr u) (Syntax.E_attr u')
  | Syntax.Attr_incl (u, Syntax.A_neg u') ->
    entails_disjoint t (Syntax.E_attr u) (Syntax.E_attr u')

(** [closure_axioms t] materializes the finite deductive closure over the
    TBox signature: every entailed positive basic inclusion, negative
    inclusion and qualified-existential inclusion, reflexive inclusions
    omitted.  Exponential neither in theory nor practice (the closure of
    a DL-Lite TBox is polynomial in the signature), but still quadratic:
    meant for inspection and tests, not for FMA-sized inputs. *)
let closure_axioms t =
  let signature = Tbox.signature (Encoding.tbox t.encoding) in
  let concepts =
    List.map (fun a -> Syntax.Atomic a) (Signature.concepts signature)
    @ List.concat_map
        (fun p ->
          [ Syntax.Exists (Syntax.Direct p); Syntax.Exists (Syntax.Inverse p) ])
        (Signature.roles signature)
    @ List.map (fun u -> Syntax.Attr_domain u) (Signature.attributes signature)
  in
  let roles =
    List.concat_map
      (fun p -> [ Syntax.Direct p; Syntax.Inverse p ])
      (Signature.roles signature)
  in
  let attrs = Signature.attributes signature in
  let acc = ref [] in
  let push ax = acc := ax :: !acc in
  (* concept-to-concept, concept-to-negated-concept *)
  List.iter
    (fun b1 ->
      List.iter
        (fun b2 ->
          if not (Syntax.equal_basic b1 b2) then begin
            if subsumes t (Syntax.E_concept b1) (Syntax.E_concept b2) then
              push (Syntax.Concept_incl (b1, Syntax.C_basic b2))
          end;
          if entails_disjoint t (Syntax.E_concept b1) (Syntax.E_concept b2) then
            push (Syntax.Concept_incl (b1, Syntax.C_neg b2)))
        concepts)
    concepts;
  (* qualified existentials: B ⊑ ∃Q.A with A atomic *)
  List.iter
    (fun b ->
      List.iter
        (fun q ->
          List.iter
            (fun a ->
              if entails_qualified t b q a then
                push (Syntax.Concept_incl (b, Syntax.C_exists_qual (q, a))))
            (Signature.concepts signature))
        roles)
    concepts;
  (* roles *)
  List.iter
    (fun q1 ->
      List.iter
        (fun q2 ->
          if not (Syntax.equal_role q1 q2) then begin
            if subsumes t (Syntax.E_role q1) (Syntax.E_role q2) then
              push (Syntax.Role_incl (q1, Syntax.R_role q2))
          end;
          if entails_disjoint t (Syntax.E_role q1) (Syntax.E_role q2) then
            push (Syntax.Role_incl (q1, Syntax.R_neg q2)))
        roles)
    roles;
  (* attributes *)
  List.iter
    (fun u1 ->
      List.iter
        (fun u2 ->
          if u1 <> u2 && subsumes t (Syntax.E_attr u1) (Syntax.E_attr u2) then
            push (Syntax.Attr_incl (u1, Syntax.A_attr u2));
          if entails_disjoint t (Syntax.E_attr u1) (Syntax.E_attr u2) then
            push (Syntax.Attr_incl (u1, Syntax.A_neg u2)))
        attrs)
    attrs;
  List.sort_uniq Syntax.compare_axiom !acc
