(* Tests for extensional constraints (functionality, identification),
   their well-formedness, parsing, engine integration and mapping
   analysis. *)

open Dllite
module Integrity = Obda.Integrity
module Cq = Obda.Cq

let parse_doc s =
  match Parser.parse_document s with
  | r -> r
  | exception Parser.Parse_error { line; message } ->
    Alcotest.failf "parse error line %d: %s" line message

(* ------------------------------ parsing ------------------------------ *)

let test_parse_constraints () =
  let _tbox, constraints =
    parse_doc
      {|
        role hasHead
        attr ssn
        Team [= exists hasHead
        funct hasHead
        funct hasHead^-
        funct attr ssn
        id Person ssn_of
      |}
  in
  Alcotest.(check int) "four constraints" 4 (List.length constraints);
  Alcotest.(check bool) "funct role" true
    (List.mem (Constraints.Funct_role (Syntax.Direct "hasHead")) constraints);
  Alcotest.(check bool) "funct inverse" true
    (List.mem (Constraints.Funct_role (Syntax.Inverse "hasHead")) constraints);
  Alcotest.(check bool) "funct attr" true
    (List.mem (Constraints.Funct_attr "ssn") constraints);
  Alcotest.(check bool) "identification" true
    (List.mem
       (Constraints.Identification ("Person", [ Syntax.Direct "ssn_of" ]))
       constraints)

let test_parse_tbox_drops_constraints () =
  let t = Parser.parse_tbox {|
    role p
    funct p
    A [= exists p
  |} in
  Alcotest.(check int) "axioms only" 1 (Tbox.axiom_count t)

(* --------------------------- well-formedness ------------------------- *)

let test_well_formed () =
  let tbox = Parser.parse_tbox {|
    role p
    role q
    p [= q
  |} in
  (* q has the proper sub-role p: (funct q) is inadmissible *)
  Alcotest.(check int) "inadmissible" 1
    (List.length
       (Constraints.well_formed tbox [ Constraints.Funct_role (Syntax.Direct "q") ]));
  (* p has no sub-roles: fine *)
  Alcotest.(check int) "admissible" 0
    (List.length
       (Constraints.well_formed tbox [ Constraints.Funct_role (Syntax.Direct "p") ]));
  (* empty identification path list is rejected *)
  Alcotest.(check int) "empty id" 1
    (List.length
       (Constraints.well_formed tbox [ Constraints.Identification ("A", []) ]))

let test_engine_rejects_inadmissible () =
  let tbox = Parser.parse_tbox {|
    role p
    role q
    p [= q
  |} in
  match
    Obda.Engine.create
      ~constraints:[ Constraints.Funct_role (Syntax.Direct "q") ]
      ~tbox ~mappings:[] ~database:(Obda.Database.create ()) ()
  with
  | _ -> Alcotest.fail "expected Invalid_argument"
  | exception Invalid_argument _ -> ()

(* ----------------------------- integrity ----------------------------- *)

let facts_of assertions =
  Obda.Database.facts (Obda.Vabox.database_of_abox (Abox.of_list assertions))

let test_funct_role_violation () =
  let facts =
    facts_of
      [
        Abox.Role_assert ("hasHead", "team1", "ada");
        Abox.Role_assert ("hasHead", "team1", "bob");
        Abox.Role_assert ("hasHead", "team2", "cyd");
      ]
  in
  let violations =
    Integrity.check ~facts [ Constraints.Funct_role (Syntax.Direct "hasHead") ]
  in
  (match violations with
   | [ v ] ->
     Alcotest.(check string) "witness" "team1" v.Integrity.witness;
     Alcotest.(check (list string)) "fillers" [ "ada"; "bob" ] v.Integrity.values
   | other -> Alcotest.failf "expected one violation, got %d" (List.length other));
  (* inverse functionality is a different constraint and holds here *)
  Alcotest.(check bool) "inverse ok" true
    (Integrity.satisfied ~facts [ Constraints.Funct_role (Syntax.Inverse "hasHead") ])

let test_funct_inverse_violation () =
  let facts =
    facts_of
      [
        Abox.Role_assert ("memberOf", "ada", "team1");
        Abox.Role_assert ("memberOf", "bob", "team1");
      ]
  in
  (* memberOf itself is functional here (each member one team)... *)
  Alcotest.(check bool) "direct ok" true
    (Integrity.satisfied ~facts [ Constraints.Funct_role (Syntax.Direct "memberOf") ]);
  (* ...but its inverse is not (a team with two members) *)
  Alcotest.(check bool) "inverse violated" false
    (Integrity.satisfied ~facts [ Constraints.Funct_role (Syntax.Inverse "memberOf") ])

let test_funct_attr_violation () =
  let facts =
    facts_of
      [
        Abox.Attr_assert ("ssn", "ada", "111");
        Abox.Attr_assert ("ssn", "ada", "222");
      ]
  in
  Alcotest.(check int) "violated" 1
    (List.length (Integrity.check ~facts [ Constraints.Funct_attr "ssn" ]))

let test_identification () =
  let facts =
    facts_of
      [
        Abox.Concept_assert ("Person", "ada");
        Abox.Concept_assert ("Person", "bob");
        Abox.Role_assert ("hasSsn", "ada", "111");
        Abox.Role_assert ("hasSsn", "bob", "111");
        Abox.Concept_assert ("Person", "cyd");
        Abox.Role_assert ("hasSsn", "cyd", "333");
      ]
  in
  let id = Constraints.Identification ("Person", [ Syntax.Direct "hasSsn" ]) in
  (match Integrity.check ~facts [ id ] with
   | [ v ] ->
     Alcotest.(check string) "first of pair" "ada" v.Integrity.witness;
     Alcotest.(check (list string)) "second of pair" [ "bob" ] v.Integrity.values
   | other -> Alcotest.failf "expected one violation, got %d" (List.length other));
  (* two-path identification: sharing only one path is fine *)
  let id2 =
    Constraints.Identification
      ("Person", [ Syntax.Direct "hasSsn"; Syntax.Direct "bornIn" ])
  in
  Alcotest.(check bool) "two paths not both shared" true
    (Integrity.satisfied ~facts [ id2 ])

let test_engine_integrity () =
  let tbox, constraints =
    parse_doc {|
      role hasHead
      Team [= exists hasHead
      funct hasHead
    |}
  in
  let db = Obda.Database.create () in
  Obda.Database.insert_all db "teams"
    [ [ "t1"; "ada" ]; [ "t1"; "bob" ]; [ "t2"; "cyd" ] ];
  let v x = Cq.Var x in
  let mappings =
    [
      Obda.Mapping.make
        ~source:(Cq.make [ "t"; "h" ] [ Cq.atom "teams" [ v "t"; v "h" ] ])
        ~target:(Obda.Mapping.Role_head ("hasHead", v "t", v "h"));
    ]
  in
  let sys = Obda.Engine.create ~constraints ~tbox ~mappings ~database:db () in
  match Obda.Engine.integrity_violations sys with
  | [ viol ] -> Alcotest.(check string) "witness t1" "t1" viol.Integrity.witness
  | other -> Alcotest.failf "expected one violation, got %d" (List.length other)

(* -------------------------- mapping analysis ------------------------- *)

module Analysis = Obda.Mapping_analysis

let test_mapping_analysis () =
  let tbox =
    Parser.parse_tbox
      {|
        role worksFor
        Ghost [= A
        Ghost [= not A
        Manager [= Employee
      |}
  in
  let v x = Cq.Var x in
  let wide = Cq.make [ "id" ] [ Cq.atom "emp" [ v "id"; v "n" ] ] in
  let narrow =
    Cq.make [ "id" ] [ Cq.atom "emp" [ v "id"; v "n" ]; Cq.atom "mgr" [ v "id" ] ]
  in
  let mappings =
    [
      (* 0: populates an unsatisfiable concept *)
      Obda.Mapping.make ~source:wide ~target:(Obda.Mapping.Concept_head ("Ghost", v "id"));
      (* 1: wide Employee mapping *)
      Obda.Mapping.make ~source:wide
        ~target:(Obda.Mapping.Concept_head ("Employee", v "id"));
      (* 2: narrower Employee mapping — redundant w.r.t. 1 *)
      Obda.Mapping.make ~source:narrow
        ~target:(Obda.Mapping.Concept_head ("Employee", v "id"));
    ]
  in
  let issues = Analysis.analyze tbox mappings in
  Alcotest.(check bool) "unsat target flagged" true
    (List.exists
       (function Analysis.Maps_unsat_predicate (0, _) -> true | _ -> false)
       issues);
  Alcotest.(check bool) "redundancy flagged" true
    (List.mem (Analysis.Redundant (2, 1)) issues);
  Alcotest.(check bool) "wide one not flagged" false
    (List.exists (function Analysis.Redundant (1, _) -> true | _ -> false) issues);
  Alcotest.(check bool) "unmapped names reported" true
    (List.exists
       (function
         | Analysis.Unmapped (Syntax.E_role (Syntax.Direct "worksFor")) -> true
         | _ -> false)
       issues);
  Alcotest.(check int) "errors = unsat target only" 1
    (List.length (Analysis.errors issues))

let () =
  Alcotest.run "integrity"
    [
      ( "parsing",
        [
          Alcotest.test_case "constraint lines" `Quick test_parse_constraints;
          Alcotest.test_case "tbox view drops them" `Quick
            test_parse_tbox_drops_constraints;
        ] );
      ( "wellformedness",
        [
          Alcotest.test_case "admissibility" `Quick test_well_formed;
          Alcotest.test_case "engine rejects" `Quick test_engine_rejects_inadmissible;
        ] );
      ( "checking",
        [
          Alcotest.test_case "functional role" `Quick test_funct_role_violation;
          Alcotest.test_case "functional inverse" `Quick test_funct_inverse_violation;
          Alcotest.test_case "functional attribute" `Quick test_funct_attr_violation;
          Alcotest.test_case "identification" `Quick test_identification;
          Alcotest.test_case "engine integration" `Quick test_engine_integrity;
        ] );
      ( "mapping analysis",
        [ Alcotest.test_case "issue report" `Quick test_mapping_analysis ] );
    ]
