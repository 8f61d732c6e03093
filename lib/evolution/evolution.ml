(** Ontology evolution support (Section 2 lists evolution among the
    "so far overlooked" OBDA aspects; Section 8's parallel
    design-and-documentation workflow needs it): compare two versions of
    a TBox both syntactically and *logically*, so a review can
    distinguish harmless refactorings from real semantic change.

    The logical diff is computed at the name level: subsumptions,
    disjointness and unsatisfiability gained or lost between versions,
    over the union signature. *)

open Dllite

type syntactic_diff = {
  added_axioms : Syntax.axiom list;
  removed_axioms : Syntax.axiom list;
  added_names : string list;    (** concept/role/attr names, sort-tagged *)
  removed_names : string list;
}

type semantic_diff = {
  gained : Syntax.axiom list;  (** entailed by [next] but not by [prev] *)
  lost : Syntax.axiom list;    (** entailed by [prev] but not by [next] *)
  newly_unsat : string list;   (** names that became unsatisfiable *)
  newly_sat : string list;     (** names that became satisfiable *)
}

type report = {
  syntactic : syntactic_diff;
  semantic : semantic_diff;
}

let tagged_names signature =
  List.map (fun c -> "concept " ^ c) (Signature.concepts signature)
  @ List.map (fun r -> "role " ^ r) (Signature.roles signature)
  @ List.map (fun a -> "attr " ^ a) (Signature.attributes signature)

let syntactic ~prev ~next =
  let in_tbox t ax = Tbox.mem ax t in
  let prev_names = tagged_names (Tbox.signature prev) in
  let next_names = tagged_names (Tbox.signature next) in
  {
    added_axioms = List.filter (fun ax -> not (in_tbox prev ax)) (Tbox.axioms next);
    removed_axioms = List.filter (fun ax -> not (in_tbox next ax)) (Tbox.axioms prev);
    added_names = List.filter (fun n -> not (List.mem n prev_names)) next_names;
    removed_names = List.filter (fun n -> not (List.mem n next_names)) prev_names;
  }

(* The probe space of the semantic diff: name-level subsumptions and
   disjointness over the union signature, for each sort. *)
let probes prev next =
  let signature = Signature.union (Tbox.signature prev) (Tbox.signature next) in
  let concepts = Signature.concepts signature in
  let roles = Signature.roles signature in
  let attrs = Signature.attributes signature in
  let concept_probes =
    List.concat_map
      (fun a ->
        List.concat_map
          (fun b ->
            if a = b then []
            else
              [
                Syntax.Concept_incl (Syntax.Atomic a, Syntax.C_basic (Syntax.Atomic b));
                Syntax.Concept_incl (Syntax.Atomic a, Syntax.C_neg (Syntax.Atomic b));
              ])
          concepts)
      concepts
  in
  let role_probes =
    List.concat_map
      (fun p ->
        List.concat_map
          (fun q ->
            if p = q then []
            else
              [
                Syntax.Role_incl (Syntax.Direct p, Syntax.R_role (Syntax.Direct q));
                Syntax.Role_incl (Syntax.Direct p, Syntax.R_neg (Syntax.Direct q));
              ])
          roles)
      roles
  in
  let attr_probes =
    List.concat_map
      (fun u ->
        List.concat_map
          (fun w ->
            if u = w then []
            else
              [ Syntax.Attr_incl (u, Syntax.A_attr w); Syntax.Attr_incl (u, Syntax.A_neg w) ])
          attrs)
      attrs
  in
  (signature, concept_probes @ role_probes @ attr_probes)

let unsat_names d signature =
  List.filter
    (fun a -> Quonto.Deductive.is_unsat d (Syntax.E_concept (Syntax.Atomic a)))
    (Signature.concepts signature)
  @ List.filter
      (fun p -> Quonto.Deductive.is_unsat d (Syntax.E_role (Syntax.Direct p)))
      (Signature.roles signature)

let semantic ~prev ~next =
  let signature, probe_axioms = probes prev next in
  let d_prev = Quonto.Deductive.compute prev in
  let d_next = Quonto.Deductive.compute next in
  let gained, lost =
    List.fold_left
      (fun (gained, lost) ax ->
        match Quonto.Deductive.entails d_prev ax, Quonto.Deductive.entails d_next ax with
        | false, true -> (ax :: gained, lost)
        | true, false -> (gained, ax :: lost)
        | true, true | false, false -> (gained, lost))
      ([], []) probe_axioms
  in
  let unsat_prev = unsat_names d_prev signature in
  let unsat_next = unsat_names d_next signature in
  {
    gained = List.rev gained;
    lost = List.rev lost;
    newly_unsat = List.filter (fun n -> not (List.mem n unsat_prev)) unsat_next;
    newly_sat = List.filter (fun n -> not (List.mem n unsat_next)) unsat_prev;
  }

(** [diff ~prev ~next] — the full evolution report. *)
let diff ~prev ~next = { syntactic = syntactic ~prev ~next; semantic = semantic ~prev ~next }

(** [is_conservative report] — the edit added no new name-level
    entailments and lost none: safe to deploy without re-validating
    downstream mappings and queries. *)
let is_conservative report =
  report.semantic.gained = [] && report.semantic.lost = []
  && report.semantic.newly_unsat = []

let pp fmt report =
  let section title axioms =
    if axioms <> [] then begin
      Format.fprintf fmt "%s:@." title;
      List.iter (fun ax -> Format.fprintf fmt "  %a@." Syntax.pp_axiom_ascii ax) axioms
    end
  in
  section "axioms added" report.syntactic.added_axioms;
  section "axioms removed" report.syntactic.removed_axioms;
  (if report.syntactic.added_names <> [] then
     Format.fprintf fmt "names added: %s@."
       (String.concat ", " report.syntactic.added_names));
  (if report.syntactic.removed_names <> [] then
     Format.fprintf fmt "names removed: %s@."
       (String.concat ", " report.syntactic.removed_names));
  section "entailments gained" report.semantic.gained;
  section "entailments lost" report.semantic.lost;
  (if report.semantic.newly_unsat <> [] then
     Format.fprintf fmt "newly unsatisfiable: %s@."
       (String.concat ", " report.semantic.newly_unsat));
  if report.semantic.newly_sat <> [] then
    Format.fprintf fmt "newly satisfiable: %s@."
      (String.concat ", " report.semantic.newly_sat)
