(** The ontology-level fact view: atoms over concept, role and attribute
    predicates.

    Ontology predicates share one namespace with query atoms via a
    sort-tagged naming convention ([c$A], [r$P], [a$U]) so that a
    concept and a role with the same name cannot collide inside the
    generic CQ machinery. *)

open Dllite

let concept_pred a = "c$" ^ a
let role_pred p = "r$" ^ p
let attr_pred u = "a$" ^ u

(** [split_pred name] decodes the sort tag: [Some (`Concept, "A")] for
    [c$A], likewise [`Role] for [r$] and [`Attr] for [a$]; [None] for an
    untagged (database relation) name.  The one decoder of the tag. *)
let split_pred name =
  let base () = String.sub name 2 (String.length name - 2) in
  if String.length name > 2 && name.[1] = '$' then
    match name.[0] with
    | 'c' -> Some (`Concept, base ())
    | 'r' -> Some (`Role, base ())
    | 'a' -> Some (`Attr, base ())
    | _ -> None
  else None

(** [pred_of_name signature name] is the predicate [name] denotes
    against [signature]: sort-tagged when [name] is a concept, role or
    attribute there, a database relation name otherwise. *)
let pred_of_name signature name =
  if Signature.mem_concept name signature then concept_pred name
  else if Signature.mem_role name signature then role_pred name
  else if Signature.mem_attribute name signature then attr_pred name
  else name

(** [name_of_pred signature pred] inverts {!pred_of_name}: a sort tag
    that [signature] accounts for is dropped; a name that merely looks
    tagged stays as it is (it was a database relation name). *)
let name_of_pred signature pred =
  match split_pred pred with
  | Some (`Concept, a) when Signature.mem_concept a signature -> a
  | Some (`Role, p) when Signature.mem_role p signature -> p
  | Some (`Attr, u) when Signature.mem_attribute u signature -> u
  | _ -> pred

(** [fact_of_assertion a] is the row [a] materializes as: its tagged
    relation and arguments. *)
let fact_of_assertion = function
  | Abox.Concept_assert (a, c) -> (concept_pred a, [ c ])
  | Abox.Role_assert (p, c1, c2) -> (role_pred p, [ c1; c2 ])
  | Abox.Attr_assert (u, c, v) -> (attr_pred u, [ c; v ])

(** [atom_of_basic b t] is the query atom asserting [t ∈ B], introducing
    [fresh] for the existentially quantified position of [∃Q] and
    [δ(U)]. *)
let atom_of_basic b t ~fresh =
  match b with
  | Syntax.Atomic a -> Cq.atom (concept_pred a) [ t ]
  | Syntax.Exists (Syntax.Direct p) -> Cq.atom (role_pred p) [ t; fresh ]
  | Syntax.Exists (Syntax.Inverse p) -> Cq.atom (role_pred p) [ fresh; t ]
  | Syntax.Attr_domain u -> Cq.atom (attr_pred u) [ t; fresh ]

(** [database_of_abox abox] — a fresh database holding every assertion
    of [abox] as a row of its tagged relation ({!fact_of_assertion}). *)
let database_of_abox abox =
  let db = Database.create () in
  List.iter
    (fun a ->
      let pred, row = fact_of_assertion a in
      Database.insert db pred row)
    (Abox.assertions abox);
  db
