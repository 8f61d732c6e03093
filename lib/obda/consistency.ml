(** KB consistency checking, Mastro-style: every (told) negative
    inclusion is compiled into a boolean "violation query"; answered
    like any other query (rewritten with PerfectRef so that inferred
    memberships are taken into account, unfolded through the mappings
    and evaluated over the sources — [Engine.violations]), it fires iff
    the KB violates the inclusion.  This module holds the query builders
    and the report type.

    Told negative inclusions suffice: every *entailed* disjointness is a
    told one preceded by positive-inclusion chains (see
    [Deductive.entails_disjoint]), and those chains are exactly what the
    rewriting of the told query reabsorbs. *)

open Dllite

let var v = Cq.Var v

(* Violation query of one negative inclusion: an anonymous witness in
   both sides.  The query must be *boolean* — with answer variables the
   rewriting could only report violations witnessed by named
   individuals, whereas a labelled null forced by an existential axiom
   violates a disjointness just as fatally (e.g. [D ⊑ ∃p⁻.B] with
   [∃p ⊑ ¬∃p] and a single [D(o)] fact). *)
let violation_query ax =
  let body =
    match ax with
    | Syntax.Concept_incl (b1, Syntax.C_neg b2) ->
      let a1 = Vabox.atom_of_basic b1 (var "x") ~fresh:(var "y1") in
      let a2 = Vabox.atom_of_basic b2 (var "x") ~fresh:(var "y2") in
      Some [ a1; a2 ]
    | Syntax.Role_incl (q1, Syntax.R_neg q2) ->
      let role_atom q (t1, t2) =
        match q with
        | Syntax.Direct p -> Cq.atom (Vabox.role_pred p) [ t1; t2 ]
        | Syntax.Inverse p -> Cq.atom (Vabox.role_pred p) [ t2; t1 ]
      in
      Some [ role_atom q1 (var "x", var "y"); role_atom q2 (var "x", var "y") ]
    | Syntax.Attr_incl (u1, Syntax.A_neg u2) ->
      Some
        [
          Cq.atom (Vabox.attr_pred u1) [ var "x"; var "y" ];
          Cq.atom (Vabox.attr_pred u2) [ var "x"; var "y" ];
        ]
    | Syntax.Concept_incl (_, (Syntax.C_basic _ | Syntax.C_exists_qual _))
    | Syntax.Role_incl (_, Syntax.R_role _)
    | Syntax.Attr_incl (_, Syntax.A_attr _) -> None
  in
  Option.map (fun body -> Cq.make [] body) body

(* Best-effort witness reporting: the same body with the shared witness
   as an answer variable only surfaces *named* witnesses. *)
let witness_query ax =
  Option.map (fun q -> { q with Cq.answer_vars = [ "x" ] }) (violation_query ax)

type violation = {
  axiom : Syntax.axiom;        (** the violated negative inclusion *)
  witnesses : string list;     (** *named* individuals witnessing it;
                                   may be empty when the witness is an
                                   anonymous (existentially implied)
                                   object, or a constant of a mapping
                                   head *)
}
