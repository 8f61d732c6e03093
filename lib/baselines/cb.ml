(** Consequence-based classifier in the style of the CB reasoner /
    ELK: saturate per-concept "derived superconcept" sets with indexed
    inference rules, one concept at a time by a depth-first walk.

    Faithful to the paper's description of CB in two ways:
    - it is very fast on positive-inclusion-heavy ontologies (one pass,
      no pairwise tests, no closure matrix) — internally the saturation
      runs over interned integer ids with bit-set membership, the same
      engineering that makes the real CB competitive with QuOnto in
      Figure 1; and
    - it does **not** compute the property (role/attribute) hierarchy —
      Figure 1's footnote that CB "does not always perform complete
      classification ... does not compute property hierarchy".
      [role_hierarchy] deliberately returns only told axioms. *)

open Dllite

type t = {
  exprs : Syntax.expr array;              (* id -> concept-sort expression *)
  ids : (Syntax.expr, int) Hashtbl.t;     (* inverse *)
  supers : Graphlib.Bitvec.t array;       (* supers.(x) = derived S(x) *)
  unsat : bool array;
  told_role_pairs : (string * string) list;
  concept_names : string list;
}

let concept_universe tbox =
  let s = Tbox.signature tbox in
  List.map (fun a -> Syntax.E_concept (Syntax.Atomic a)) (Signature.concepts s)
  @ List.concat_map
      (fun p ->
        [
          Syntax.E_concept (Syntax.Exists (Syntax.Direct p));
          Syntax.E_concept (Syntax.Exists (Syntax.Inverse p));
        ])
      (Signature.roles s)
  @ List.map (fun u -> Syntax.E_concept (Syntax.Attr_domain u)) (Signature.attributes s)

(** [classify tbox] saturates the concept hierarchy. *)
let classify tbox =
  let universe = Array.of_list (concept_universe tbox) in
  let n = Array.length universe in
  let ids = Hashtbl.create (2 * n) in
  Array.iteri (fun i e -> Hashtbl.replace ids e i) universe;
  let id e = Hashtbl.find_opt ids e in
  (* concept-level one-step links: B ⊑ B' contributions, with role and
     attribute inclusions projected onto their ∃ / δ components *)
  let links = Array.make n [] in
  let add_link b b' =
    match id b, id b' with
    | Some i, Some j -> links.(i) <- j :: links.(i)
    | _ -> ()
  in
  List.iter
    (fun ax ->
      match ax with
      | Syntax.Concept_incl (b1, Syntax.C_basic b2) ->
        add_link (Syntax.E_concept b1) (Syntax.E_concept b2)
      | Syntax.Concept_incl (b1, Syntax.C_exists_qual (q, _)) ->
        add_link (Syntax.E_concept b1) (Syntax.E_concept (Syntax.Exists q))
      | Syntax.Role_incl (q1, Syntax.R_role q2) ->
        add_link
          (Syntax.E_concept (Syntax.Exists q1))
          (Syntax.E_concept (Syntax.Exists q2));
        add_link
          (Syntax.E_concept (Syntax.Exists (Syntax.role_inverse q1)))
          (Syntax.E_concept (Syntax.Exists (Syntax.role_inverse q2)))
      | Syntax.Attr_incl (u1, Syntax.A_attr u2) ->
        add_link
          (Syntax.E_concept (Syntax.Attr_domain u1))
          (Syntax.E_concept (Syntax.Attr_domain u2))
      | Syntax.Concept_incl (_, Syntax.C_neg _)
      | Syntax.Role_incl (_, Syntax.R_neg _)
      | Syntax.Attr_incl (_, Syntax.A_neg _) -> ())
    (Tbox.axioms tbox);
  (* saturation, one concept at a time: S(x) starts at {x};
     B ∈ S(x), B → C  ⟹  C ∈ S(x).  Each concept enters the DFS stack at
     most once per x, so one reused stack of size n suffices. *)
  let supers = Array.init n (fun _ -> Graphlib.Bitvec.create n) in
  let stack = Array.make n 0 in
  for x = 0 to n - 1 do
    let s = supers.(x) in
    Graphlib.Bitvec.set s x;
    stack.(0) <- x;
    let top = ref 1 in
    while !top > 0 do
      decr top;
      List.iter
        (fun c ->
          if not (Graphlib.Bitvec.get s c) then begin
            Graphlib.Bitvec.set s c;
            stack.(!top) <- c;
            incr top
          end)
        links.(stack.(!top))
    done
  done;
  (* incoherence from concept disjointness: S1, S2 ∈ S(x) with a told NI
     (S1 ⊑ ¬S2) derives ⊥ ∈ S(x) *)
  let nis =
    List.filter_map
      (function
        | Syntax.Concept_incl (b1, Syntax.C_neg b2) -> (
          match id (Syntax.E_concept b1), id (Syntax.E_concept b2) with
          | Some i, Some j -> Some (i, j)
          | _ -> None)
        | _ -> None)
      (Tbox.axioms tbox)
  in
  (* no second pass for x ⊑ y with y unsat: y ∈ S(x) gives S(y) ⊆ S(x),
     so x already holds y's clashing pair *)
  let unsat =
    Array.map
      (fun s ->
        List.exists
          (fun (i, j) -> Graphlib.Bitvec.get s i && Graphlib.Bitvec.get s j)
          nis)
      supers
  in
  let told_role_pairs =
    List.filter_map
      (function
        | Syntax.Role_incl (Syntax.Direct p, Syntax.R_role (Syntax.Direct q)) ->
          Some (p, q)
        | _ -> None)
      (Tbox.axioms tbox)
  in
  {
    exprs = universe;
    ids;
    supers;
    unsat;
    told_role_pairs;
    concept_names = Signature.concepts (Tbox.signature tbox);
  }

let subsumes t e1 e2 =
  match Hashtbl.find_opt t.ids e1 with
  | None -> Syntax.equal_expr e1 e2
  | Some i ->
    if t.unsat.(i) then true
    else (
      match Hashtbl.find_opt t.ids e2 with
      | Some j -> Graphlib.Bitvec.get t.supers.(i) j
      | None -> false)

let is_unsat t e =
  match Hashtbl.find_opt t.ids e with Some i -> t.unsat.(i) | None -> false

(** [concept_hierarchy t] — complete name-level concept taxonomy. *)
let concept_hierarchy t =
  List.concat_map
    (fun a ->
      let ea = Syntax.E_concept (Syntax.Atomic a) in
      match Hashtbl.find_opt t.ids ea with
      | None -> []
      | Some i ->
        if t.unsat.(i) then
          List.filter_map (fun b -> if a <> b then Some (a, b) else None) t.concept_names
        else
          Graphlib.Bitvec.to_list t.supers.(i)
          |> List.filter_map (fun j ->
                 match t.exprs.(j) with
                 | Syntax.E_concept (Syntax.Atomic b) when b <> a -> Some (a, b)
                 | _ -> None))
    t.concept_names
  |> List.sort compare

(** [role_hierarchy t] — deliberately incomplete: told axioms only (the
    CB reasoner does not classify properties). *)
let role_hierarchy t = List.sort compare t.told_role_pairs
