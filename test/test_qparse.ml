(* Tests for the query/mapping/facts text formats. *)

open Dllite
module Cq = Obda.Cq
module Qparse = Obda.Qparse

let signature =
  Signature.empty
  |> Signature.add_concept "Employee"
  |> Signature.add_role "worksFor"
  |> Signature.add_attribute "salary"

let test_parse_query () =
  let q =
    Qparse.parse_query ~signature "x, y <- worksFor(x, y), Employee(x)"
  in
  Alcotest.(check (list string)) "answer vars" [ "x"; "y" ] q.Cq.answer_vars;
  Alcotest.(check int) "two atoms" 2 (List.length q.Cq.body);
  (match q.Cq.body with
   | [ a1; a2 ] ->
     Alcotest.(check string) "role tagged" "r$worksFor" a1.Cq.pred;
     Alcotest.(check string) "concept tagged" "c$Employee" a2.Cq.pred
   | _ -> Alcotest.fail "bad body")

let test_parse_query_constants () =
  let q = Qparse.parse_query ~signature {|x <- dept(x, "R&D")|} in
  match q.Cq.body with
  | [ a ] ->
    Alcotest.(check string) "db relation untagged" "dept" a.Cq.pred;
    Alcotest.(check bool) "constant" true
      (List.exists (function Cq.Const "R&D" -> true | _ -> false) a.Cq.args)
  | _ -> Alcotest.fail "bad body"

let test_parse_query_boolean () =
  let q = Qparse.parse_query ~signature " <- Employee(x)" in
  Alcotest.(check (list string)) "boolean" [] q.Cq.answer_vars

let test_parse_query_errors () =
  (match Qparse.parse_query ~signature "x, Employee(x)" with
   | _ -> Alcotest.fail "expected error"
   | exception Qparse.Parse_error _ -> ());
  (match Qparse.parse_query ~signature "z <- Employee(x)" with
   | _ -> Alcotest.fail "answer var must occur"
   | exception Qparse.Parse_error _ -> ())

let test_parse_query_malformed () =
  (* each of these must raise Parse_error, not silently mis-parse *)
  List.iter
    (fun text ->
      match Qparse.parse_query ~signature text with
      | q ->
        Alcotest.failf "expected Parse_error for %S, got %s" text
          (Cq.to_string q)
      | exception Qparse.Parse_error _ -> ())
    [
      "x <- worksFor(x";          (* unclosed paren *)
      "x <- ";                    (* empty body *)
      {|x <- dept(x, "R&D|};      (* unterminated constant *)
      "x <- worksFor(a,,b)";      (* empty term *)
    ]

let test_parse_query_arrow_in_constant () =
  (* "<-" inside a quoted constant is data, not the separator *)
  let q = Qparse.parse_query ~signature {|x <- note(x, "a <- b")|} in
  match q.Cq.body with
  | [ a ] ->
    Alcotest.(check bool) "constant kept verbatim" true
      (List.exists (function Cq.Const "a <- b" -> true | _ -> false) a.Cq.args)
  | _ -> Alcotest.fail "bad body"

let test_parse_mappings () =
  let mappings =
    Qparse.parse_mappings ~signature
      {|
        # employees come from the HR table
        map Employee(id) <- t_emp(id, n, co)
        map worksFor(id, co) <- t_emp(id, n, co)
        map salary(id, s) <- t_pay(id, s)
      |}
  in
  Alcotest.(check int) "three mappings" 3 (List.length mappings);
  match mappings with
  | [ m1; m2; m3 ] ->
    (match m1.Obda.Mapping.target with
     | Obda.Mapping.Concept_head ("Employee", Cq.Var "id") -> ()
     | _ -> Alcotest.fail "bad concept head");
    (match m2.Obda.Mapping.target with
     | Obda.Mapping.Role_head ("worksFor", Cq.Var "id", Cq.Var "co") -> ()
     | _ -> Alcotest.fail "bad role head");
    (match m3.Obda.Mapping.target with
     | Obda.Mapping.Attr_head ("salary", Cq.Var "id", Cq.Var "s") -> ()
     | _ -> Alcotest.fail "bad attr head")
  | _ -> Alcotest.fail "wrong count"

let test_parse_mappings_errors () =
  (* head must be an ontology predicate *)
  (match Qparse.parse_mappings ~signature "map t_emp(id) <- t_emp(id, n, c)" with
   | _ -> Alcotest.fail "expected error"
   | exception Qparse.Parse_error _ -> ());
  (* head variables must be answered by the source *)
  match Qparse.parse_mappings ~signature "map Employee(id) <- t_emp(x, n, c)" with
  | _ -> Alcotest.fail "expected unanswered-variable error"
  | exception Qparse.Parse_error _ -> ()

let test_load_facts () =
  let db = Obda.Database.create () in
  Qparse.load_facts db {|
    # facts
    t_emp(e1, ada, acme)
    t_flag(e1)
    t_note(e2, "hello, world")
  |};
  Alcotest.(check int) "rows loaded" 3 (Obda.Database.size db);
  Alcotest.(check (list (list string))) "quoted comma kept"
    [ [ "e2"; "hello, world" ] ]
    (Obda.Database.rows db "t_note")

(* one argument codec: a query atom, a FACTS line and an ABOX line with
   the same argument text read the same arguments *)
let test_same_arguments_everywhere () =
  List.iter
    (fun (atom, expected) ->
      let query_args =
        List.map
          (function Cq.Const c -> c | Cq.Var v -> "?" ^ v)
          (Qparse.parse_atom ~signature atom).Cq.args
      in
      let facts_args =
        match Qparse.parse_facts atom with
        | [ (_, row) ] -> row
        | _ -> Alcotest.failf "one fact expected from %s" atom
      in
      let abox_args =
        match Qparse.parse_assertion ~signature atom with
        | Abox.Concept_assert (_, c) -> [ c ]
        | Abox.Role_assert (_, c1, c2) | Abox.Attr_assert (_, c1, c2) -> [ c1; c2 ]
      in
      Alcotest.(check (list string)) ("query " ^ atom) expected query_args;
      Alcotest.(check (list string)) ("facts " ^ atom) expected facts_args;
      Alcotest.(check (list string)) ("abox " ^ atom) expected abox_args)
    [
      ({|Employee("Smith, J")|}, [ "Smith, J" ]);
      ({|Employee("")|}, [ "" ]);
      ({|salary("p2", "Doe, A")|}, [ "p2"; "Doe, A" ]);
      ({|worksFor("a(b", "c), d")|}, [ "a(b"; "c), d" ]);
      ({|salary( "p1" ,  "  padded  " )|}, [ "p1"; "  padded  " ]);
    ];
  (* bare arguments: variables in a query, constants in facts and
     assertions *)
  Alcotest.(check (list string)) "bare facts" [ "p1"; "Smith" ]
    (snd (List.hd (Qparse.parse_facts "salary(p1, Smith)")));
  (* malformed argument lists are refused by all three *)
  List.iter
    (fun atom ->
      let refused f =
        match f () with
        | _ -> Alcotest.failf "expected Parse_error for %s" atom
        | exception Qparse.Parse_error _ -> ()
      in
      refused (fun () -> ignore (Qparse.parse_atom ~signature atom));
      refused (fun () -> ignore (Qparse.parse_facts atom));
      refused (fun () -> ignore (Qparse.parse_assertion ~signature atom)))
    [ {|Employee("Smith, J)|}; "salary(p1, )"; "salary(, p1)"; "Employee" ]

let test_parse_abox () =
  let a =
    Abox.of_list
      (Qparse.parse_abox ~signature
         {|
           Employee(alice)
           worksFor(alice, bob)
           salary(alice, thirty)
         |})
  in
  Alcotest.(check int) "parsed size" 3 (Abox.size a);
  Alcotest.(check bool) "role" true
    (Abox.mem (Abox.Role_assert ("worksFor", "alice", "bob")) a);
  Alcotest.(check bool) "attribute from the signature" true
    (Abox.mem (Abox.Attr_assert ("salary", "alice", "thirty")) a)

let () =
  Alcotest.run "qparse"
    [
      ( "queries",
        [
          Alcotest.test_case "basic" `Quick test_parse_query;
          Alcotest.test_case "constants" `Quick test_parse_query_constants;
          Alcotest.test_case "boolean" `Quick test_parse_query_boolean;
          Alcotest.test_case "errors" `Quick test_parse_query_errors;
          Alcotest.test_case "malformed" `Quick test_parse_query_malformed;
          Alcotest.test_case "arrow in constant" `Quick
            test_parse_query_arrow_in_constant;
          Alcotest.test_case "same arguments everywhere" `Quick
            test_same_arguments_everywhere;
        ] );
      ( "mappings",
        [
          Alcotest.test_case "basic" `Quick test_parse_mappings;
          Alcotest.test_case "errors" `Quick test_parse_mappings_errors;
        ] );
      ("facts", [ Alcotest.test_case "loading" `Quick test_load_facts ]);
      ("abox", [ Alcotest.test_case "parsing" `Quick test_parse_abox ]);
    ]
