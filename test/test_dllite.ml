(* Tests for the DL-Lite syntax, signatures, TBoxes and the parser. *)

open Dllite

let axiom = Alcotest.testable Syntax.pp_axiom Syntax.equal_axiom

(* ------------------------------ syntax ------------------------------- *)

let test_role_inverse () =
  Alcotest.(check string) "inv name" "p"
    (Syntax.role_name (Syntax.role_inverse (Syntax.Direct "p")));
  Alcotest.(check bool) "double inverse" true
    (Syntax.equal_role (Syntax.Direct "p")
       (Syntax.role_inverse (Syntax.role_inverse (Syntax.Direct "p"))))

let test_is_positive () =
  Alcotest.(check bool) "PI" true
    (Syntax.is_positive
       (Syntax.Concept_incl (Syntax.Atomic "A", Syntax.C_basic (Syntax.Atomic "B"))));
  Alcotest.(check bool) "NI" false
    (Syntax.is_positive
       (Syntax.Concept_incl (Syntax.Atomic "A", Syntax.C_neg (Syntax.Atomic "B"))));
  Alcotest.(check bool) "qualified is positive" true
    (Syntax.is_positive
       (Syntax.Concept_incl
          (Syntax.Atomic "A", Syntax.C_exists_qual (Syntax.Direct "p", "B"))));
  Alcotest.(check bool) "role NI" false
    (Syntax.is_positive
       (Syntax.Role_incl (Syntax.Direct "p", Syntax.R_neg (Syntax.Direct "q"))))

let test_printing () =
  Alcotest.(check string) "qualified existential"
    "County [= exists isPartOf . State"
    (Syntax.axiom_to_string
       (Syntax.Concept_incl
          (Syntax.Atomic "County", Syntax.C_exists_qual (Syntax.Direct "isPartOf", "State"))));
  Alcotest.(check string) "inverse existential" "State [= exists isPartOf^- . County"
    (Syntax.axiom_to_string
       (Syntax.Concept_incl
          ( Syntax.Atomic "State",
            Syntax.C_exists_qual (Syntax.Inverse "isPartOf", "County") )));
  Alcotest.(check string) "negation" "A [= not exists p"
    (Syntax.axiom_to_string
       (Syntax.Concept_incl
          (Syntax.Atomic "A", Syntax.C_neg (Syntax.Exists (Syntax.Direct "p")))))

(* ----------------------------- signature ----------------------------- *)

let test_signature_extraction () =
  let ax =
    Syntax.Concept_incl
      (Syntax.Exists (Syntax.Direct "p"), Syntax.C_exists_qual (Syntax.Inverse "q", "A"))
  in
  let s = Signature.of_axiom ax in
  Alcotest.(check (list string)) "concepts" [ "A" ] (Signature.concepts s);
  Alcotest.(check (list string)) "roles" [ "p"; "q" ] (Signature.roles s);
  Alcotest.(check (list string)) "attrs" [] (Signature.attributes s)

let test_signature_attr () =
  let ax = Syntax.Attr_incl ("u", Syntax.A_neg "v") in
  let s = Signature.of_axiom ax in
  Alcotest.(check (list string)) "attrs" [ "u"; "v" ] (Signature.attributes s)

(* ------------------------------- tbox -------------------------------- *)

let test_tbox_dedup () =
  let ax = Syntax.Concept_incl (Syntax.Atomic "A", Syntax.C_basic (Syntax.Atomic "B")) in
  let t = Tbox.of_axioms [ ax; ax; ax ] in
  Alcotest.(check int) "dedup" 1 (Tbox.axiom_count t)

let test_tbox_split () =
  let pi = Syntax.Concept_incl (Syntax.Atomic "A", Syntax.C_basic (Syntax.Atomic "B")) in
  let ni = Syntax.Concept_incl (Syntax.Atomic "A", Syntax.C_neg (Syntax.Atomic "C")) in
  let t = Tbox.of_axioms [ pi; ni ] in
  Alcotest.(check (list axiom)) "positive" [ pi ] (Tbox.positive_inclusions t);
  Alcotest.(check (list axiom)) "negative" [ ni ] (Tbox.negative_inclusions t)

let test_tbox_declarations () =
  let t = Tbox.empty |> Tbox.declare_concept "Lonely" in
  Alcotest.(check bool) "declared" true
    (Signature.mem_concept "Lonely" (Tbox.signature t));
  Alcotest.(check int) "no axioms" 0 (Tbox.axiom_count t)

(* ------------------------------- parser ------------------------------ *)

let parse s =
  match Parser.tbox_of_string s with
  | Ok t -> t
  | Error e -> Alcotest.failf "parse error: %s" e

let test_parse_figure2 () =
  (* the two axioms of Figure 2 of the paper *)
  let t =
    parse
      {|
        # Figure 2: qualified existential restrictions
        concept County
        concept State
        role isPartOf
        County [= exists isPartOf . State
        State [= exists isPartOf^- . County
      |}
  in
  Alcotest.(check int) "two axioms" 2 (Tbox.axiom_count t);
  Alcotest.(check bool) "first axiom" true
    (Tbox.mem
       (Syntax.Concept_incl
          (Syntax.Atomic "County", Syntax.C_exists_qual (Syntax.Direct "isPartOf", "State")))
       t);
  Alcotest.(check bool) "second axiom" true
    (Tbox.mem
       (Syntax.Concept_incl
          ( Syntax.Atomic "State",
            Syntax.C_exists_qual (Syntax.Inverse "isPartOf", "County") ))
       t)

let test_parse_sort_inference () =
  let t =
    parse
      {|
        role worksFor
        worksFor [= memberOf
        Employee [= exists worksFor
        exists worksFor^- [= Company
      |}
  in
  Alcotest.(check bool) "role incl" true
    (Tbox.mem
       (Syntax.Role_incl (Syntax.Direct "worksFor", Syntax.R_role (Syntax.Direct "memberOf")))
       t);
  Alcotest.(check bool) "memberOf became a role" true
    (Signature.mem_role "memberOf" (Tbox.signature t));
  Alcotest.(check bool) "Employee is a concept" true
    (Signature.mem_concept "Employee" (Tbox.signature t))

let test_parse_negations () =
  let t =
    parse {|
      A [= not B
      p [= not q
      attr u
      attr v
      u [= not v
    |}
  in
  Alcotest.(check bool) "concept NI" true
    (Tbox.mem (Syntax.Concept_incl (Syntax.Atomic "A", Syntax.C_neg (Syntax.Atomic "B"))) t);
  Alcotest.(check bool) "role NI — p defaults to concept without declaration" false
    (Tbox.mem (Syntax.Role_incl (Syntax.Direct "p", Syntax.R_neg (Syntax.Direct "q"))) t);
  Alcotest.(check bool) "attr NI" true
    (Tbox.mem (Syntax.Attr_incl ("u", Syntax.A_neg "v")) t)

let test_parse_delta () =
  let t = parse {|
    attr salary
    delta(salary) [= Employee
  |} in
  Alcotest.(check bool) "attr domain" true
    (Tbox.mem
       (Syntax.Concept_incl (Syntax.Attr_domain "salary", Syntax.C_basic (Syntax.Atomic "Employee")))
       t)

let test_parse_errors () =
  (match Parser.tbox_of_string "A [= exists" with
   | Error _ -> ()
   | Ok _ -> Alcotest.fail "expected parse error");
  (match Parser.tbox_of_string "A ⊑ B" with
   | Error _ -> ()
   | Ok _ -> Alcotest.fail "expected lex error on unicode");
  match Parser.tbox_of_string "concept A\nrole A" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "expected sort clash error"

let test_parse_roundtrip () =
  (* print a TBox, re-parse it, and compare axiom sets *)
  let t =
    parse
      {|
        concept A
        concept B
        role p
        attr u
        A [= B
        A [= exists p . B
        exists p^- [= B
        delta(u) [= A
        u [= u'
        p [= p'
        A [= not exists p
      |}
  in
  (* sorts of u' and p' were inferred from their left-hand sides *)
  let printed = Format.asprintf "%a" Tbox.pp t in
  let reparse_source =
    (* re-declare the full signature; printing does not emit decls *)
    let sig_decls =
      let s = Tbox.signature t in
      String.concat "\n"
        (List.map (Printf.sprintf "concept %s") (Signature.concepts s)
        @ List.map (Printf.sprintf "role %s") (Signature.roles s)
        @ List.map (Printf.sprintf "attr %s") (Signature.attributes s))
    in
    sig_decls ^ "\n" ^ printed
  in
  let t' = parse reparse_source in
  Alcotest.(check bool) "roundtrip" true (Tbox.equal t t')

(* printer/parser fuzz: any generated TBox survives print -> reparse *)
let prop_print_parse_roundtrip =
  QCheck.Test.make ~count:300 ~name:"printer/parser roundtrip"
    Ontgen.Qgen.arbitrary_tbox (fun axioms ->
      let t = Ontgen.Qgen.tbox_of_axioms axioms in
      let source =
        let s = Tbox.signature t in
        String.concat "\n"
          (List.map (Printf.sprintf "concept %s") (Signature.concepts s)
          @ List.map (Printf.sprintf "role %s") (Signature.roles s)
          @ List.map (Printf.sprintf "attr %s") (Signature.attributes s))
        ^ "\n"
        ^ Format.asprintf "%a" Tbox.pp t
      in
      match Parser.tbox_of_string source with
      | Ok t' -> Tbox.equal t t'
      | Error _ -> false)

(* ------------------------------- abox -------------------------------- *)

let test_abox () =
  let a =
    Abox.of_list
      [
        Abox.Concept_assert ("Person", "alice");
        Abox.Role_assert ("knows", "alice", "bob");
        Abox.Attr_assert ("age", "alice", "30");
      ]
  in
  Alcotest.(check int) "size" 3 (Abox.size a);
  Alcotest.(check (list string)) "individuals" [ "alice"; "bob" ] (Abox.individuals a);
  Alcotest.(check (list string)) "members" [ "alice" ] (Abox.concept_members a "Person");
  Alcotest.(check (list (pair string string))) "role pairs" [ ("alice", "bob") ]
    (Abox.role_members a "knows")

let () =
  Alcotest.run "dllite"
    [
      ( "syntax",
        [
          Alcotest.test_case "role inverse" `Quick test_role_inverse;
          Alcotest.test_case "polarity" `Quick test_is_positive;
          Alcotest.test_case "printing" `Quick test_printing;
        ] );
      ( "signature",
        [
          Alcotest.test_case "extraction" `Quick test_signature_extraction;
          Alcotest.test_case "attributes" `Quick test_signature_attr;
        ] );
      ( "tbox",
        [
          Alcotest.test_case "dedup" `Quick test_tbox_dedup;
          Alcotest.test_case "positive/negative split" `Quick test_tbox_split;
          Alcotest.test_case "declarations" `Quick test_tbox_declarations;
        ] );
      ( "parser",
        [
          Alcotest.test_case "figure 2" `Quick test_parse_figure2;
          Alcotest.test_case "sort inference" `Quick test_parse_sort_inference;
          Alcotest.test_case "negations" `Quick test_parse_negations;
          Alcotest.test_case "attribute domain" `Quick test_parse_delta;
          Alcotest.test_case "errors" `Quick test_parse_errors;
          Alcotest.test_case "roundtrip" `Quick test_parse_roundtrip;
          QCheck_alcotest.to_alcotest prop_print_parse_roundtrip;
        ] );
      ( "abox",
        [
          Alcotest.test_case "assertions" `Quick test_abox;
        ] );
    ]
