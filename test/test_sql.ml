(* Tests for SQL generation: the compiled statement's direct evaluation
   must agree with the generic CQ evaluator, and the printed text must
   have the expected surface shape. *)

module Cq = Obda.Cq
module Sql = Obda.Sql
module Database = Obda.Database
module Vabox = Obda.Vabox

let v x = Cq.Var x
let c x = Cq.Const x

let contains haystack needle =
  let n = String.length needle and h = String.length haystack in
  let rec go i = i + n <= h && (String.sub haystack i n = needle || go (i + 1)) in
  n = 0 || go 0

let db () =
  let db = Database.create () in
  Database.insert_all db "emp"
    [ [ "e1"; "ada"; "acme" ]; [ "e2"; "bob"; "acme" ]; [ "e3"; "cyd"; "init" ] ];
  Database.insert_all db "mgr" [ [ "e2" ] ];
  db

let sorted = List.sort compare

(* ------------------------------ printing ----------------------------- *)

let test_sql_text_simple () =
  let q = Cq.make [ "x" ] [ Cq.atom "mgr" [ v "x" ] ] in
  let sql = Sql.to_string (Sql.of_ucq [ q ]) in
  Alcotest.(check string) "simple select" "SELECT DISTINCT t0.c0 FROM mgr t0" sql

let test_sql_text_join () =
  let q =
    Cq.make [ "n" ] [ Cq.atom "emp" [ v "x"; v "n"; v "co" ]; Cq.atom "mgr" [ v "x" ] ]
  in
  let sql = Sql.to_string (Sql.of_ucq [ q ]) in
  Alcotest.(check bool) "both tables" true (contains sql "FROM emp t0, mgr t1");
  Alcotest.(check bool) "join condition" true (contains sql "t0.c0 = t1.c0")

let test_sql_text_constant () =
  let q = Cq.make [ "x" ] [ Cq.atom "emp" [ v "x"; v "n"; c "acme" ] ] in
  let sql = Sql.to_string (Sql.of_ucq [ q ]) in
  Alcotest.(check bool) "constant filter" true (contains sql "t0.c2 = 'acme'")

let test_sql_text_union () =
  let q1 = Cq.make [ "x" ] [ Cq.atom "mgr" [ v "x" ] ] in
  let q2 = Cq.make [ "x" ] [ Cq.atom "emp" [ v "x"; v "n"; v "co" ] ] in
  let sql = Sql.to_string (Sql.of_ucq [ q1; q2 ]) in
  Alcotest.(check bool) "union" true (contains sql "\nUNION\n")

let test_sql_text_boolean () =
  let q = Cq.make [] [ Cq.atom "mgr" [ v "x" ] ] in
  let sql = Sql.to_string (Sql.of_ucq [ q ]) in
  Alcotest.(check bool) "boolean projects a constant" true
    (contains sql "SELECT DISTINCT 1 FROM mgr t0")

let test_sql_text_empty_union () =
  Alcotest.(check string) "no-answer statement" "SELECT 1 WHERE 1 = 0"
    (Sql.to_string (Sql.of_ucq []))

let test_sql_escaping () =
  let q = Cq.make [ "x" ] [ Cq.atom "emp" [ v "x"; v "n"; c "o'brien" ] ] in
  let sql = Sql.to_string (Sql.of_ucq [ q ]) in
  Alcotest.(check bool) "quote doubled" true (contains sql "'o''brien'")

(* ----------------------------- evaluation ---------------------------- *)

let test_sql_eval_matches_cq () =
  let db = db () in
  let queries =
    [
      Cq.make [ "x" ] [ Cq.atom "mgr" [ v "x" ] ];
      Cq.make [ "n" ]
        [ Cq.atom "emp" [ v "x"; v "n"; v "co" ]; Cq.atom "mgr" [ v "x" ] ];
      Cq.make [ "x"; "y" ]
        [ Cq.atom "emp" [ v "x"; v "n"; v "co" ]; Cq.atom "emp" [ v "y"; v "m"; v "co" ] ];
      Cq.make [ "x" ] [ Cq.atom "emp" [ v "x"; v "n"; c "acme" ] ];
      Cq.make [] [ Cq.atom "mgr" [ v "x" ] ];
    ]
  in
  List.iter
    (fun q ->
      let via_cq = sorted (Cq.evaluate ~source:(Database.source db) q) in
      let via_sql = sorted (Sql.eval db (Sql.of_ucq [ q ])) in
      Alcotest.(check (list (list string))) (Cq.to_string q) via_cq via_sql)
    queries

let test_sql_eval_union_dedup () =
  let db = db () in
  let q1 = Cq.make [ "x" ] [ Cq.atom "mgr" [ v "x" ] ] in
  let q2 = Cq.make [ "x" ] [ Cq.atom "emp" [ v "x"; v "n"; c "acme" ] ] in
  let rows = sorted (Sql.eval db (Sql.of_ucq [ q1; q2 ])) in
  (* e2 appears in both branches but only once in the union *)
  Alcotest.(check (list (list string))) "union dedup" [ [ "e1" ]; [ "e2" ] ] rows

(* end-to-end: rewriting -> unfolding -> SQL -> evaluation *)
let test_sql_obda_pipeline () =
  let tbox =
    Dllite.Parser.tbox_of_string_exn
      {|
        role worksFor
        Manager [= Employee
      |}
  in
  let mappings =
    [
      Obda.Mapping.make
        ~source:(Cq.make [ "id" ] [ Cq.atom "emp" [ v "id"; v "n"; v "co" ] ])
        ~target:(Obda.Mapping.Concept_head ("Employee", v "id"));
      Obda.Mapping.make
        ~source:(Cq.make [ "id" ] [ Cq.atom "mgr" [ v "id" ] ])
        ~target:(Obda.Mapping.Concept_head ("Manager", v "id"));
    ]
  in
  let q = Cq.make [ "x" ] [ Cq.atom (Vabox.concept_pred "Employee") [ v "x" ] ] in
  let db = db () in
  let engine = Obda.Engine.create ~tbox ~mappings ~database:db () in
  let stmt = Sql.of_ucq (Obda.Engine.compile engine [ q ]) in
  let via_sql = sorted (Sql.eval db stmt) in
  let via_engine = sorted (Obda.Engine.certain_answers engine q) in
  Alcotest.(check (list (list string))) "pipeline agreement" via_engine via_sql;
  (* the SQL covers both mappings *)
  let text = Sql.to_string stmt in
  Alcotest.(check bool) "mentions emp" true (contains text "FROM emp");
  Alcotest.(check bool) "mentions mgr" true (contains text "FROM mgr")

(* property: SQL evaluation = CQ evaluation on random queries *)
let gen_query =
  QCheck.Gen.(
    let var = oneofl [ "x"; "y"; "z" ] in
    let atom =
      frequency
        [
          (2, map (fun t -> Cq.atom "mgr" [ Cq.Var t ]) var);
          ( 3,
            map3
              (fun t1 t2 t3 -> Cq.atom "emp" [ Cq.Var t1; Cq.Var t2; Cq.Var t3 ])
              var var var );
        ]
    in
    let* body = list_size (int_range 1 3) atom in
    let occurring =
      List.concat_map
        (fun a -> List.filter_map (function Cq.Var v -> Some v | _ -> None) a.Cq.args)
        body
      |> List.sort_uniq compare
    in
    let* keep = int_bound (List.length occurring) in
    return { Cq.answer_vars = List.filteri (fun i _ -> i < keep) occurring; Cq.body })

let prop_sql_matches_cq =
  QCheck.Test.make ~count:200 ~name:"SQL evaluation = CQ evaluation"
    (QCheck.make ~print:Cq.to_string gen_query)
    (fun q ->
      let db = db () in
      sorted (Sql.eval db (Sql.of_ucq [ q ]))
      = sorted (Cq.evaluate ~source:(Database.source db) q))

let () =
  Alcotest.run "sql"
    [
      ( "printing",
        [
          Alcotest.test_case "simple" `Quick test_sql_text_simple;
          Alcotest.test_case "join" `Quick test_sql_text_join;
          Alcotest.test_case "constant" `Quick test_sql_text_constant;
          Alcotest.test_case "union" `Quick test_sql_text_union;
          Alcotest.test_case "boolean" `Quick test_sql_text_boolean;
          Alcotest.test_case "empty union" `Quick test_sql_text_empty_union;
          Alcotest.test_case "escaping" `Quick test_sql_escaping;
        ] );
      ( "evaluation",
        [
          Alcotest.test_case "matches CQ engine" `Quick test_sql_eval_matches_cq;
          Alcotest.test_case "union dedup" `Quick test_sql_eval_union_dedup;
          Alcotest.test_case "obda pipeline" `Quick test_sql_obda_pipeline;
          QCheck_alcotest.to_alcotest prop_sql_matches_cq;
        ] );
    ]
