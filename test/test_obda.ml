(* Tests for the OBDA substrate: conjunctive queries, the database,
   mappings/unfolding, PerfectRef rewriting (against the chase oracle),
   consistency checking, and the end-to-end engine. *)

open Dllite
module Cq = Obda.Cq
module Database = Obda.Database
module Mapping = Obda.Mapping
module Rewrite = Obda.Rewrite
module Chase = Obda.Chase
module Engine = Obda.Engine
module Vabox = Obda.Vabox

let parse s =
  match Parser.tbox_of_string s with
  | Ok t -> t
  | Error e -> Alcotest.failf "parse error: %s" e

let v x = Cq.Var x
let c x = Cq.Const x

let sorted_answers l = List.sort compare l

let answers_t = Alcotest.(list (list string))
let check_answers msg expected actual =
  Alcotest.check answers_t msg (sorted_answers expected) (sorted_answers actual)

(* -------------------------------- cq --------------------------------- *)

let test_cq_bound_vars () =
  let q =
    Cq.make [ "x" ]
      [ Cq.atom "r$p" [ v "x"; v "y" ]; Cq.atom "c$A" [ v "y" ]; Cq.atom "r$q" [ v "x"; v "z" ] ]
  in
  Alcotest.(check bool) "answer var bound" true (Cq.is_bound q "x");
  Alcotest.(check bool) "join var bound" true (Cq.is_bound q "y");
  Alcotest.(check bool) "lone var unbound" false (Cq.is_bound q "z")

let test_cq_make_checks () =
  Alcotest.check_raises "head var must occur"
    (Invalid_argument "Cq.make: answer variable x not in body") (fun () ->
      ignore (Cq.make [ "x" ] [ Cq.atom "p" [ v "y" ] ]))

let test_cq_evaluate () =
  let db = Database.create () in
  Database.insert_all db "p" [ [ "a"; "b" ]; [ "b"; "c" ]; [ "a"; "d" ] ];
  Database.insert_all db "A" [ [ "b" ] ];
  let source = Database.source db in
  let q = Cq.make [ "x" ] [ Cq.atom "p" [ v "x"; v "y" ]; Cq.atom "A" [ v "y" ] ] in
  check_answers "join" [ [ "a" ] ] (Cq.evaluate ~source q);
  let q2 = Cq.make [ "x"; "y" ] [ Cq.atom "p" [ v "x"; v "y" ] ] in
  check_answers "all pairs"
    [ [ "a"; "b" ]; [ "b"; "c" ]; [ "a"; "d" ] ]
    (Cq.evaluate ~source q2);
  let q3 = Cq.make [ "y" ] [ Cq.atom "p" [ c "a"; v "y" ] ] in
  check_answers "constant selection" [ [ "b" ]; [ "d" ] ] (Cq.evaluate ~source q3)

let test_cq_containment () =
  (* q1(x) :- p(x,y)   contains   q2(x) :- p(x,y), A(y) *)
  let q1 = Cq.make [ "x" ] [ Cq.atom "p" [ v "x"; v "y" ] ] in
  let q2 = Cq.make [ "x" ] [ Cq.atom "p" [ v "x"; v "y" ]; Cq.atom "A" [ v "y" ] ] in
  Alcotest.(check bool) "q2 subset q1" true (Cq.contains q1 q2);
  Alcotest.(check bool) "q1 not subset q2" false (Cq.contains q2 q1);
  (* different predicate: incomparable *)
  let q3 = Cq.make [ "x" ] [ Cq.atom "q" [ v "x"; v "y" ] ] in
  Alcotest.(check bool) "incomparable" false (Cq.contains q1 q3)

let test_cq_minimize () =
  let q1 = Cq.make [ "x" ] [ Cq.atom "p" [ v "x"; v "y" ] ] in
  let q2 = Cq.make [ "x" ] [ Cq.atom "p" [ v "x"; v "y" ]; Cq.atom "A" [ v "y" ] ] in
  let q1' = Cq.make [ "x" ] [ Cq.atom "p" [ v "x"; v "z" ] ] in
  Alcotest.(check int) "subsumed dropped" 1 (List.length (Cq.minimize_ucq [ q1; q2 ]));
  Alcotest.(check int) "equivalent collapsed" 1
    (List.length (Cq.minimize_ucq [ q1; q1' ]));
  Alcotest.(check int) "order irrelevant" 1 (List.length (Cq.minimize_ucq [ q2; q1 ]))

(* ------------------------------ database ----------------------------- *)

let test_database () =
  let db = Database.create () in
  Database.insert db "emp" [ "alice"; "acme" ];
  Database.insert db "emp" [ "bob"; "initech" ];
  Database.insert db "emp" [ "alice"; "acme" ];
  Alcotest.(check int) "dedup" 2 (List.length (Database.rows db "emp"));
  Alcotest.(check (list string)) "names" [ "emp" ] (Database.relation_names db);
  Alcotest.(check int) "size" 2 (Database.size db);
  Alcotest.check_raises "arity clash"
    (Invalid_argument "Database.insert: emp arity mismatch") (fun () ->
      Database.insert db "emp" [ "x" ])

(* [Database.rows]/[facts] promise set semantics only: tuple order is
   unspecified and may differ between the naive and indexed evaluation
   paths.  This test pins the contract down: consumers may rely on the
   sorted view being stable, never on the raw order (everything
   user-visible sorts at render time — the serving layer's [op_ask] and
   the CLI's answer printer). *)
let test_database_ordering_contract () =
  let rows = [ [ "c"; "3" ]; [ "a"; "1" ]; [ "b"; "2" ] ] in
  let db1 = Database.create () in
  List.iter (Database.insert db1 "r") rows;
  let db2 = Database.create () in
  List.iter (Database.insert db2 "r") (List.rev rows);
  Alcotest.check answers_t "same set whatever the insertion order"
    (sorted_answers (Database.rows db1 "r"))
    (sorted_answers (Database.rows db2 "r"));
  Alcotest.check answers_t "sorted view is canonical"
    (sorted_answers rows)
    (sorted_answers (Database.rows db1 "r"))

let test_database_probe () =
  let db = Database.create () in
  Database.insert db "p" [ "a"; "b" ];
  Database.insert db "p" [ "a"; "c" ];
  Database.insert db "p" [ "b"; "c" ];
  Alcotest.check answers_t "probe col 0"
    [ [ "a"; "b" ]; [ "a"; "c" ] ]
    (sorted_answers (Database.probe db "p" [ (0, "a") ]));
  (* the index on column 0 now exists; an insert must maintain it *)
  Database.insert db "p" [ "a"; "d" ];
  Alcotest.check answers_t "probe sees the new row"
    [ [ "a"; "b" ]; [ "a"; "c" ]; [ "a"; "d" ] ]
    (sorted_answers (Database.probe db "p" [ (0, "a") ]));
  Alcotest.check answers_t "two-column pattern"
    [ [ "a"; "c" ] ]
    (Database.probe db "p" [ (0, "a"); (1, "c") ]);
  Alcotest.check answers_t "miss" [] (Database.probe db "p" [ (0, "z") ]);
  Alcotest.check answers_t "unknown relation" [] (Database.probe db "q" [ (0, "a") ]);
  Alcotest.check answers_t "position beyond arity" []
    (Database.probe db "p" [ (5, "a") ]);
  Alcotest.(check int) "cardinality" 4 (Database.cardinality db "p");
  Alcotest.(check int) "distinct keys col 0" 2 (Database.distinct_keys db "p" [ 0 ])

(* -------------------- cost-based executor vs naive ------------------- *)

(* Every threshold setting must produce the same answer set: 0 forces
   hash joins everywhere, max_int forces nested loops everywhere, and
   the small values exercise the adaptive switch mid-query. *)
let thresholds = [ 0; 1; 2; Obda.Cq.default_join_threshold; max_int ]

let check_indexed_vs_naive msg db q =
  let expected = sorted_answers (Obda.Cq.Naive.evaluate ~facts:(Database.facts db) q) in
  List.iter
    (fun join_threshold ->
      check_answers
        (Printf.sprintf "%s (threshold %d)" msg join_threshold)
        expected
        (Obda.Cq.evaluate ~join_threshold ~source:(Database.source db) q))
    thresholds

let executor_db () =
  let db = Database.create () in
  Database.insert_all db "p"
    [ [ "a"; "b" ]; [ "b"; "c" ]; [ "a"; "d" ]; [ "c"; "c" ]; [ "d"; "d" ] ];
  Database.insert_all db "q" [ [ "b"; "a" ]; [ "c"; "b" ] ];
  Database.insert_all db "A" [ [ "a" ]; [ "b" ] ];
  Database.insert_all db "B" [ [ "c" ] ];
  Database.declare db "empty" ~arity:1;
  db

(* cross-products: atoms sharing no variables — the old backtracking
   scan handled these implicitly; the planner must not assume a join
   variable exists *)
let test_exec_cross_product () =
  let db = executor_db () in
  check_indexed_vs_naive "binary cross product" db
    (Cq.make [ "x"; "y" ] [ Cq.atom "A" [ v "x" ]; Cq.atom "B" [ v "y" ] ]);
  check_indexed_vs_naive "cross product then join" db
    (Cq.make [ "x"; "y" ]
       [ Cq.atom "A" [ v "x" ]; Cq.atom "B" [ v "z" ]; Cq.atom "p" [ v "x"; v "y" ] ])

(* atoms with all-constant arguments act as boolean guards *)
let test_exec_all_constant_atoms () =
  let db = executor_db () in
  check_indexed_vs_naive "guard present" db
    (Cq.make [ "x" ] [ Cq.atom "A" [ v "x" ]; Cq.atom "p" [ c "a"; c "b" ] ]);
  check_indexed_vs_naive "guard absent" db
    (Cq.make [ "x" ] [ Cq.atom "A" [ v "x" ]; Cq.atom "p" [ c "z"; c "z" ] ]);
  check_indexed_vs_naive "constant selection" db
    (Cq.make [ "y" ] [ Cq.atom "p" [ c "a"; v "y" ] ])

(* repeated variables within one atom: p(x,x) constrains the row to be
   reflexive even before x is bound anywhere else *)
let test_exec_repeated_vars () =
  let db = executor_db () in
  check_indexed_vs_naive "reflexive atom" db
    (Cq.make [ "x" ] [ Cq.atom "p" [ v "x"; v "x" ] ]);
  check_indexed_vs_naive "reflexive join" db
    (Cq.make [ "x"; "y" ]
       [ Cq.atom "p" [ v "x"; v "x" ]; Cq.atom "p" [ v "y"; v "x" ] ]);
  check_indexed_vs_naive "repeated var with constant" db
    (Cq.make [ "x" ] [ Cq.atom "p" [ v "x"; v "x" ]; Cq.atom "B" [ v "x" ] ])

(* empty relations (declared-empty and never-declared) must kill the
   disjunct wherever they land in the plan *)
let test_exec_empty_relations () =
  let db = executor_db () in
  check_indexed_vs_naive "declared empty" db
    (Cq.make [ "x" ] [ Cq.atom "A" [ v "x" ]; Cq.atom "empty" [ v "x" ] ]);
  check_indexed_vs_naive "undeclared" db
    (Cq.make [ "x" ] [ Cq.atom "nosuch" [ v "x" ] ]);
  check_indexed_vs_naive "empty first in a join chain" db
    (Cq.make [ "x"; "y" ]
       [ Cq.atom "empty" [ v "x" ]; Cq.atom "p" [ v "x"; v "y" ] ])

(* ------------------------------ rewriting ---------------------------- *)

let test_rewrite_atomic_hierarchy () =
  let t = parse {|
    Manager [= Employee
    Employee [= Person
  |} in
  let q = Cq.make [ "x" ] [ Cq.atom (Vabox.concept_pred "Person") [ v "x" ] ] in
  let ucq, stats = Rewrite.perfect_ref t [ q ] in
  (* Person(x) ∨ Employee(x) ∨ Manager(x) *)
  Alcotest.(check int) "three disjuncts" 3 (List.length ucq);
  Alcotest.(check bool) "stats populated" true (stats.Rewrite.output_size = 3)

let test_rewrite_exists () =
  (* q(x) :- worksFor(x, y)  with  Employee [= exists worksFor:
     rewriting adds Employee(x) *)
  let t = parse {|
    role worksFor
    Employee [= exists worksFor
  |} in
  let q = Cq.make [ "x" ] [ Cq.atom (Vabox.role_pred "worksFor") [ v "x"; v "y" ] ] in
  let ucq, _ = Rewrite.perfect_ref t [ q ] in
  let has_employee_disjunct =
    List.exists
      (fun q' ->
        List.exists
          (fun a -> a.Cq.pred = Vabox.concept_pred "Employee")
          q'.Cq.body)
      ucq
  in
  Alcotest.(check bool) "Employee(x) disjunct" true has_employee_disjunct

let test_rewrite_exists_blocked_when_bound () =
  (* q(x,y) :- worksFor(x,y): y is an answer variable, so the
     existential PI must NOT apply *)
  let t = parse {|
    role worksFor
    Employee [= exists worksFor
  |} in
  let q =
    Cq.make [ "x"; "y" ] [ Cq.atom (Vabox.role_pred "worksFor") [ v "x"; v "y" ] ]
  in
  let ucq, _ = Rewrite.perfect_ref t [ q ] in
  Alcotest.(check int) "no rewriting applies" 1 (List.length ucq)

let test_rewrite_reduce_enables () =
  (* classic reduce example: q(x) :- worksFor(x,y), worksFor(z,y)
     unifying the two atoms makes y unbound, enabling Employee [= exists
     worksFor; certain answers must include employees with no recorded
     co-worker *)
  let t = parse {|
    role worksFor
    Employee [= exists worksFor
  |} in
  let q =
    Cq.make [ "x" ]
      [
        Cq.atom (Vabox.role_pred "worksFor") [ v "x"; v "y" ];
        Cq.atom (Vabox.role_pred "worksFor") [ v "z"; v "y" ];
      ]
  in
  let ucq, _ = Rewrite.perfect_ref t [ q ] in
  let has_employee_disjunct =
    List.exists
      (fun q' ->
        List.exists (fun a -> a.Cq.pred = Vabox.concept_pred "Employee") q'.Cq.body)
      ucq
  in
  Alcotest.(check bool) "reduce enabled existential" true has_employee_disjunct

let test_rewrite_qualified () =
  (* Figure-2 style: q(x) :- isPartOf(x,y), State(y) and
     County [= exists isPartOf . State: County(x) must appear *)
  let t = parse {|
    role isPartOf
    County [= exists isPartOf . State
  |} in
  let q =
    Cq.make [ "x" ]
      [
        Cq.atom (Vabox.role_pred "isPartOf") [ v "x"; v "y" ];
        Cq.atom (Vabox.concept_pred "State") [ v "y" ];
      ]
  in
  let ucq, _ = Rewrite.perfect_ref t [ q ] in
  let has_county =
    List.exists
      (fun q' ->
        List.exists (fun a -> a.Cq.pred = Vabox.concept_pred "County") q'.Cq.body)
      ucq
  in
  Alcotest.(check bool) "County(x) disjunct" true has_county

let test_rewrite_inverse_role () =
  let t = parse {|
    role p
    role q
    p [= q^-
  |} in
  let q = Cq.make [ "x"; "y" ] [ Cq.atom (Vabox.role_pred "q") [ v "x"; v "y" ] ] in
  let ucq, _ = Rewrite.perfect_ref t [ q ] in
  (* q(x,y) ∨ p(y,x) *)
  let has_swapped_p =
    List.exists
      (fun q' ->
        List.exists
          (fun a ->
            a.Cq.pred = Vabox.role_pred "p"
            && a.Cq.args = [ v "y"; v "x" ])
          q'.Cq.body)
      ucq
  in
  Alcotest.(check bool) "inverse swap" true has_swapped_p

let test_presto_equivalent () =
  let t =
    parse
      {|
        role p
        A [= B
        B [= C
        C [= exists p
        exists p^- [= D
      |}
  in
  let q = Cq.make [ "x" ] [ Cq.atom (Vabox.concept_pred "C") [ v "x" ] ] in
  let u1, _ = Rewrite.perfect_ref t [ q ] in
  let u2, _ = Rewrite.presto_ref t [ q ] in
  (* logically equivalent: mutual UCQ containment *)
  let covered a b =
    List.for_all (fun qa -> List.exists (fun qb -> Cq.contains qb qa) b) a
  in
  Alcotest.(check bool) "presto covers perfectref" true (covered u1 u2);
  Alcotest.(check bool) "perfectref covers presto" true (covered u2 u1)

(* ------------------------------- chase ------------------------------- *)

let test_chase_basic () =
  let t = parse {|
    role p
    A [= B
    B [= exists p . C
  |} in
  let abox = Abox.of_list [ Abox.Concept_assert ("A", "o") ] in
  let q = Cq.make [ "x" ] [ Cq.atom (Vabox.concept_pred "B") [ v "x" ] ] in
  check_answers "derived member" [ [ "o" ] ] (Chase.certain_answers t abox q);
  (* the null witness must not leak into answers *)
  let q2 = Cq.make [ "y" ] [ Cq.atom (Vabox.concept_pred "C") [ v "y" ] ] in
  check_answers "null filtered" [] (Chase.certain_answers t abox q2);
  (* but boolean-style queries can use it through an existential var *)
  let q3 =
    Cq.make [ "x" ]
      [ Cq.atom (Vabox.role_pred "p") [ v "x"; v "y" ];
        Cq.atom (Vabox.concept_pred "C") [ v "y" ] ]
  in
  check_answers "existential witness" [ [ "o" ] ] (Chase.certain_answers t abox q3)

let test_chase_inconsistency () =
  let t = parse {|
    A [= B
    B [= not C
  |} in
  let bad = Abox.of_list [ Abox.Concept_assert ("A", "o"); Abox.Concept_assert ("C", "o") ] in
  let good = Abox.of_list [ Abox.Concept_assert ("A", "o") ] in
  Alcotest.(check bool) "violation" true (Chase.violates_ni t bad);
  Alcotest.(check bool) "no violation" false (Chase.violates_ni t good)

(* ------------------------------ mappings ----------------------------- *)

let university_db () =
  let db = Database.create () in
  Database.insert_all db "t_emp"
    [ [ "1"; "alice"; "acme" ]; [ "2"; "bob"; "initech" ] ];
  Database.insert_all db "t_mgr" [ [ "2" ] ];
  db

let university_mappings () =
  [
    Mapping.make
      ~source:(Cq.make [ "id" ] [ Cq.atom "t_emp" [ v "id"; v "n"; v "co" ] ])
      ~target:(Mapping.Concept_head ("Employee", v "id"));
    Mapping.make
      ~source:
        (Cq.make [ "id" ] [ Cq.atom "t_emp" [ v "id"; v "n"; v "co" ]; Cq.atom "t_mgr" [ v "id" ] ])
      ~target:(Mapping.Concept_head ("Manager", v "id"));
    Mapping.make
      ~source:(Cq.make [ "id"; "co" ] [ Cq.atom "t_emp" [ v "id"; v "n"; v "co" ] ])
      ~target:(Mapping.Role_head ("worksFor", v "id", v "co"));
  ]

let test_mapping_materialize () =
  let abox = Mapping.materialize (university_mappings ()) (university_db ()) in
  Alcotest.(check bool) "employee 1" true
    (Abox.mem (Abox.Concept_assert ("Employee", "1")) abox);
  Alcotest.(check bool) "manager 2" true
    (Abox.mem (Abox.Concept_assert ("Manager", "2")) abox);
  Alcotest.(check bool) "worksFor" true
    (Abox.mem (Abox.Role_assert ("worksFor", "1", "acme")) abox);
  Alcotest.(check int) "total" 5 (Abox.size abox)

let test_mapping_unfold_matches_materialize () =
  let mappings = university_mappings () in
  let db = university_db () in
  let q =
    Cq.make [ "x"; "y" ] [ Cq.atom (Vabox.role_pred "worksFor") [ v "x"; v "y" ] ]
  in
  let unfolded = Mapping.unfold mappings q in
  let via_unfold = Cq.evaluate_ucq ~source:(Database.source db) unfolded in
  let via_mat =
    Cq.evaluate
      ~source:
        (Database.source
           (Vabox.database_of_abox (Mapping.materialize mappings db)))
      q
  in
  check_answers "unfold = materialize" via_mat via_unfold

let test_mapping_unfold_dead_atom () =
  (* an atom with no mapping kills the disjunct *)
  let mappings = university_mappings () in
  let q = Cq.make [ "x" ] [ Cq.atom (Vabox.concept_pred "Unmapped") [ v "x" ] ] in
  Alcotest.(check int) "no disjuncts" 0 (List.length (Mapping.unfold mappings q))

(* A head constant binds the query variable it meets, in the atoms
   already unfolded as well as in those still to come: Manager(x) ∧
   Intern(x) must not hold of ada just because some intern exists. *)
let test_mapping_unfold_constant_head () =
  let db = Database.create () in
  Database.insert_all db "t_emp" [ [ "ada" ] ];
  Database.insert_all db "t_flag" [ [ "z" ] ];
  let mappings =
    [
      Mapping.make
        ~source:(Cq.make [ "id" ] [ Cq.atom "t_emp" [ v "id" ] ])
        ~target:(Mapping.Concept_head ("Manager", v "id"));
      Mapping.make
        ~source:(Cq.make [] [ Cq.atom "t_flag" [ v "z" ] ])
        ~target:(Mapping.Concept_head ("Intern", c "bob"));
    ]
  in
  let both =
    Cq.make []
      [
        Cq.atom (Vabox.concept_pred "Manager") [ v "x" ];
        Cq.atom (Vabox.concept_pred "Intern") [ v "x" ];
      ]
  in
  let holds () =
    Cq.evaluate_ucq ~source:(Database.source db) (Mapping.unfold mappings both) <> []
  in
  Alcotest.(check bool) "ada is no intern" false (holds ());
  let sys =
    Engine.create ~tbox:(parse "Manager [= not Intern") ~mappings ~database:db ()
  in
  Alcotest.(check bool) "consistent" true (Engine.consistent sys);
  Database.insert db "t_emp" [ "bob" ];
  Alcotest.(check bool) "bob is both" true (holds ());
  Alcotest.(check bool) "inconsistent" false (Engine.consistent sys)

(* Unfolding draws its fresh-variable tags from a counter of its own:
   the same UCQ unfolds to the same database UCQ every time, also while
   another domain unfolds at once. *)
let test_mapping_unfold_deterministic () =
  let mappings = university_mappings () in
  let concept a x = Cq.atom (Vabox.concept_pred a) [ v x ] in
  let ucq =
    [
      Cq.make [ "x" ]
        [ concept "Employee" "x"; Cq.atom (Vabox.role_pred "worksFor") [ v "x"; v "y" ] ];
      Cq.make [ "x" ] [ concept "Manager" "x"; concept "Employee" "x" ];
    ]
  in
  let sequential = Mapping.unfold_ucq mappings ucq in
  Alcotest.(check bool) "repeatable" true (Mapping.unfold_ucq mappings ucq = sequential);
  let mismatches () =
    let n = ref 0 in
    for _ = 1 to 500 do
      if Mapping.unfold_ucq mappings ucq <> sequential then incr n
    done;
    !n
  in
  let workers = List.init 2 (fun _ -> Domain.spawn mismatches) in
  Alcotest.(check (list int)) "no domain disagrees" [ 0; 0 ] (List.map Domain.join workers)

(* ------------------------------- engine ------------------------------ *)

let engine_tbox =
  {|
    role worksFor
    Manager [= Employee
    Employee [= exists worksFor
    exists worksFor^- [= Organization
    Manager [= not Intern
  |}

let test_engine_end_to_end () =
  let t = parse engine_tbox in
  let sys =
    Engine.create ~tbox:t ~mappings:(university_mappings ())
      ~database:(university_db ()) ()
  in
  (* who is an employee? manager bob (id 2) must be inferred *)
  let q = Cq.make [ "x" ] [ Cq.atom (Vabox.concept_pred "Employee") [ v "x" ] ] in
  check_answers "employees" [ [ "1" ]; [ "2" ] ] (Engine.certain_answers sys q);
  (* organizations come from the range axiom *)
  let q2 = Cq.make [ "x" ] [ Cq.atom (Vabox.concept_pred "Organization") [ v "x" ] ] in
  check_answers "orgs" [ [ "acme" ]; [ "initech" ] ] (Engine.certain_answers sys q2);
  Alcotest.(check bool) "consistent" true (Engine.consistent sys)

let test_engine_inconsistency () =
  let t = parse engine_tbox in
  let db = university_db () in
  Database.insert db "t_intern" [ "2" ];
  let mappings =
    Mapping.make
      ~source:(Cq.make [ "id" ] [ Cq.atom "t_intern" [ v "id" ] ])
      ~target:(Mapping.Concept_head ("Intern", v "id"))
    :: university_mappings ()
  in
  let sys = Engine.create ~tbox:t ~mappings ~database:db () in
  Alcotest.(check bool) "manager+intern inconsistent" false (Engine.consistent sys);
  match Engine.violations sys with
  | [ viol ] ->
    Alcotest.(check (list string)) "witness is bob" [ "2" ] viol.Obda.Consistency.witnesses
  | other -> Alcotest.failf "expected one violation, got %d" (List.length other)

let test_engine_abox_mode () =
  let t = parse engine_tbox in
  let abox =
    Abox.of_list
      [
        Abox.Concept_assert ("Manager", "carol");
        Abox.Role_assert ("worksFor", "dave", "acme");
      ]
  in
  let sys = Engine.of_abox t abox in
  let q = Cq.make [ "x" ] [ Cq.atom (Vabox.concept_pred "Employee") [ v "x" ] ] in
  check_answers "manager inferred" [ [ "carol" ] ] (Engine.certain_answers sys q);
  let q2 = Cq.make [ "x" ] [ Cq.atom (Vabox.concept_pred "Organization") [ v "x" ] ] in
  check_answers "range inferred" [ [ "acme" ] ] (Engine.certain_answers sys q2)

(* Saturation draws the names of existential steps' fresh variables
   from one process-wide counter.  Canonicalization renames them away,
   so compiling a query with existential steps gives the same UCQ every
   time, also while another domain compiles at once. *)
let test_compile_fresh_vars_deterministic () =
  let sys =
    Engine.create ~tbox:(parse engine_tbox) ~mappings:(university_mappings ())
      ~database:(university_db ()) ()
  in
  let concept a x = Cq.atom (Vabox.concept_pred a) [ v x ] in
  let ucq =
    [
      Cq.make [ "x" ] [ concept "Organization" "x" ];
      Cq.make [ "x" ]
        [ Cq.atom (Vabox.role_pred "worksFor") [ v "x"; v "y" ]; concept "Organization" "y" ];
    ]
  in
  let sequential = Engine.compile sys ucq in
  Alcotest.(check bool) "repeatable" true (Engine.compile sys ucq = sequential);
  let mismatches () =
    let n = ref 0 in
    for _ = 1 to 500 do
      if Engine.compile sys ucq <> sequential then incr n
    done;
    !n
  in
  let workers = List.init 2 (fun _ -> Domain.spawn mismatches) in
  Alcotest.(check (list int)) "no domain disagrees" [ 0; 0 ] (List.map Domain.join workers)

(* ----------- properties: indexed executor vs naive oracle ------------ *)

(* A fixed little schema keeps arities consistent across random inserts
   and random query atoms: two binary and two unary relations over a
   four-value pool — small enough that joins, collisions, duplicates
   and empty probes all happen constantly. *)
let exec_schema = [ ("p", 2); ("q", 2); ("A", 1); ("B", 1) ]
let exec_values = [ "a"; "b"; "c"; "d" ]

let gen_exec_row arity =
  QCheck.Gen.(list_repeat arity (oneofl exec_values))

let gen_exec_insert =
  QCheck.Gen.(
    let* name, arity = oneofl exec_schema in
    let* row = gen_exec_row arity in
    return (name, row))

let gen_exec_db = QCheck.Gen.(list_size (int_bound 25) gen_exec_insert)

let db_of_inserts inserts =
  let db = Database.create () in
  List.iter (fun (name, row) -> Database.insert db name row) inserts;
  db

(* random CQs over the schema: variables repeat across and within
   atoms, constants appear in any position, and the answer tuple is a
   prefix of the occurring variables (possibly empty: boolean query) *)
let gen_exec_query =
  QCheck.Gen.(
    let term = frequency [ (3, map (fun x -> Cq.Var x) (oneofl [ "x"; "y"; "z" ]));
                           (1, map (fun x -> Cq.Const x) (oneofl exec_values)) ] in
    let atom =
      let* name, arity = oneofl exec_schema in
      let* args = list_repeat arity term in
      return (Cq.atom name args)
    in
    let* body = list_size (int_range 1 4) atom in
    let occurring =
      List.concat_map
        (fun a -> List.filter_map (function Cq.Var v -> Some v | _ -> None) a.Cq.args)
        body
      |> List.sort_uniq compare
    in
    let* keep = int_bound (List.length occurring) in
    return { Cq.answer_vars = List.filteri (fun i _ -> i < keep) occurring; body })

let arbitrary_db_and_query =
  QCheck.make
    ~print:(fun (inserts, q) ->
      Printf.sprintf "inserts: %s\nquery: %s"
        (String.concat "; "
           (List.map (fun (n, row) -> n ^ "(" ^ String.concat "," row ^ ")") inserts))
        (Cq.to_string q))
    QCheck.Gen.(pair gen_exec_db gen_exec_query)

let prop_indexed_matches_naive =
  QCheck.Test.make ~count:300
    ~name:"indexed answers = naive answers at every join threshold"
    arbitrary_db_and_query
    (fun (inserts, q) ->
      let db = db_of_inserts inserts in
      let expected =
        sorted_answers (Obda.Cq.Naive.evaluate ~facts:(Database.facts db) q)
      in
      List.for_all
        (fun join_threshold ->
          sorted_answers
            (Obda.Cq.evaluate ~join_threshold ~source:(Database.source db) q)
          = expected)
        [ 0; 1; 4; max_int ])

(* index consistency: at any point of an arbitrary insert/probe
   interleaving, a pattern-index probe returns exactly the rows a
   filtered full scan does.  Probes mid-stream force lazy builds, so
   later inserts exercise the incremental maintenance path. *)
let gen_exec_op =
  QCheck.Gen.(
    frequency
      [
        (3, map (fun i -> `Insert i) gen_exec_insert);
        ( 1,
          let* name, arity = oneofl exec_schema in
          let* v0 = oneofl exec_values in
          let* v1 = oneofl exec_values in
          let* bound =
            if arity = 1 then return [ (0, v0) ]
            else oneofl [ [ (0, v0) ]; [ (1, v1) ]; [ (0, v0); (1, v1) ] ]
          in
          return (`Probe (name, bound)) );
      ])

let arbitrary_op_sequence =
  QCheck.make
    ~print:(fun ops ->
      String.concat "; "
        (List.map
           (function
             | `Insert (n, row) -> n ^ "(" ^ String.concat "," row ^ ")"
             | `Probe (n, bound) ->
               Printf.sprintf "probe %s [%s]" n
                 (String.concat ";"
                    (List.map (fun (i, x) -> Printf.sprintf "%d=%s" i x) bound)))
           ops))
    QCheck.Gen.(list_size (int_bound 40) gen_exec_op)

let prop_index_consistency =
  QCheck.Test.make ~count:300
    ~name:"index probe = filtered full scan under interleaved inserts"
    arbitrary_op_sequence
    (fun ops ->
      let db = Database.create () in
      List.for_all
        (function
          | `Insert (name, row) ->
            Database.insert db name row;
            true
          | `Probe (name, bound) ->
            let scan =
              List.filter
                (fun row ->
                  List.for_all (fun (i, x) -> List.nth_opt row i = Some x) bound)
                (Database.rows db name)
            in
            sorted_answers (Database.probe db name bound) = sorted_answers scan)
        ops)

(* delta maintenance: for a random database D, a random UCQ and a random
   insert batch Δ — fresh rows, duplicates within Δ, and rows already
   in D — merging D's answers with the delta rule's answers over Δ is
   exactly the canonical answer set over D ∪ Δ, which is the naive
   oracle's.  Disjuncts share an arity by keeping those with enough
   variables. *)
let gen_exec_ucq =
  QCheck.Gen.(
    let* arity = int_bound 2 in
    let* disjuncts = list_size (int_range 1 3) gen_exec_query in
    let occurring q =
      List.concat_map
        (fun a -> List.filter_map (function Cq.Var v -> Some v | _ -> None) a.Cq.args)
        q.Cq.body
      |> List.sort_uniq compare
    in
    return
      (List.filter_map
         (fun q ->
           let vars = occurring q in
           if List.length vars < arity then None
           else Some { q with Cq.answer_vars = List.filteri (fun i _ -> i < arity) vars })
         disjuncts))

let gen_delta_case =
  QCheck.Gen.(
    let* d = gen_exec_db in
    let* fresh = list_size (int_bound 8) gen_exec_insert in
    let* picks = list_size (int_bound 4) (int_bound 1000) in
    let pick l i = List.nth l (i mod List.length l) in
    let already = if d = [] then [] else List.map (pick d) picks in
    let repeated = if fresh = [] then [] else List.map (pick fresh) picks in
    let* ucq = gen_exec_ucq in
    return (d, fresh @ already @ repeated, ucq))

let arbitrary_delta_case =
  let show inserts =
    String.concat "; "
      (List.map (fun (n, row) -> n ^ "(" ^ String.concat "," row ^ ")") inserts)
  in
  QCheck.make
    ~print:(fun (d, delta, ucq) ->
      Printf.sprintf "D: %s\nΔ: %s\nucq: %s" (show d) (show delta)
        (String.concat " | " (List.map Cq.to_string ucq)))
    gen_delta_case

let prop_delta_matches_full =
  QCheck.Test.make ~count:300
    ~name:"merged delta answers = full answers = naive answers after insert"
    arbitrary_delta_case
    (fun (d, delta, ucq) ->
      List.for_all
        (fun join_threshold ->
          let db = db_of_inserts d in
          let source = Database.source db in
          let before = Cq.sort_answers (Cq.evaluate_ucq ~join_threshold ~source ucq) in
          List.iter (fun (name, row) -> Database.insert db name row) delta;
          let added =
            Cq.evaluate_ucq_delta ~join_threshold ~source
              ~delta:(Database.source (db_of_inserts delta)) ucq
          in
          let merged = Cq.merge_answers before (Cq.sort_answers added) in
          let full = Cq.evaluate_ucq ~join_threshold ~source ucq in
          let naive = Cq.Naive.evaluate_ucq ~facts:(Database.facts db) ucq in
          merged = Cq.sort_answers full
          && merged = List.sort_uniq compare naive
          (* the monomorphic order is polymorphic compare's *)
          && Cq.sort_answers naive = List.sort_uniq compare naive)
        [ 0; max_int ])

(* The merge is one recursion in constructor position: a million-tuple
   side must not overflow the stack, and the result is the canonical
   union.  Past the last fresh tuple, [old]'s cells are shared. *)
let test_merge_answers_large () =
  let tuples step = List.init 1_000_000 (fun i -> [ Printf.sprintf "%07d" (step * i) ]) in
  let old = tuples 2 and fresh = tuples 3 in
  let merged = Cq.merge_answers old fresh in
  Alcotest.(check int) "size" 1_666_666 (List.length merged);
  Alcotest.(check bool) "= sort_answers of the union" true
    (merged = Cq.sort_answers (List.rev_append old fresh));
  let old = [ [ "b" ]; [ "d" ]; [ "e" ] ] in
  let merged = Cq.merge_answers old [ [ "a" ]; [ "c" ] ] in
  Alcotest.(check bool) "tail after the last fresh tuple is shared" true
    (List.tl (List.tl (List.tl merged)) == List.tl old);
  Alcotest.(check bool) "nothing fresh: old itself" true (Cq.merge_answers old [] == old)

(* -------------------- property: rewriting vs chase ------------------- *)

(* Random ABoxes over the small pools. *)
let gen_abox =
  QCheck.Gen.(
    let individual = oneofl [ "o1"; "o2"; "o3" ] in
    let assertion =
      frequency
        [
          ( 3,
            map2
              (fun a c -> Dllite.Abox.Concept_assert (a, c))
              (oneofl Ontgen.Qgen.concept_pool) individual );
          ( 2,
            map3
              (fun p c1 c2 -> Dllite.Abox.Role_assert (p, c1, c2))
              (oneofl Ontgen.Qgen.role_pool) individual individual );
        ]
    in
    list_size (int_bound 6) assertion)

(* Random small connected-ish CQs over the pools. *)
let gen_query =
  QCheck.Gen.(
    let var = oneofl [ "x"; "y"; "z" ] in
    let atom =
      frequency
        [
          (2, map2 (fun a t -> Cq.atom (Vabox.concept_pred a) [ Cq.Var t ])
               (oneofl Ontgen.Qgen.concept_pool) var);
          ( 3,
            map3
              (fun p t1 t2 -> Cq.atom (Vabox.role_pred p) [ Cq.Var t1; Cq.Var t2 ])
              (oneofl Ontgen.Qgen.role_pool) var var );
        ]
    in
    let* body = list_size (int_range 1 3) atom in
    (* answer variable: pick one that occurs *)
    let occurring =
      List.concat_map
        (fun a -> List.filter_map (function Cq.Var v -> Some v | _ -> None) a.Cq.args)
        body
    in
    match occurring with
    | [] -> return None
    | v0 :: _ -> return (Some { Cq.answer_vars = [ v0 ]; Cq.body }))

let arbitrary_kb_and_query =
  QCheck.make
    ~print:(fun (axioms, abox, q) ->
      Printf.sprintf "TBox:\n%s\nABox: %d assertions\nQuery: %s"
        (Tbox.to_string (Ontgen.Qgen.tbox_of_axioms axioms))
        (List.length abox)
        (match q with Some q -> Cq.to_string q | None -> "-"))
    QCheck.Gen.(triple Ontgen.Qgen.gen_axioms gen_abox gen_query)

(* Only positive-inclusion TBoxes: certain answers under inconsistency
   are trivially "everything", which the rewriting-based engine does not
   (and should not) model without a consistency pre-check. *)
let positive_only axioms = List.filter Dllite.Syntax.is_positive axioms

let prop_rewriting_matches_chase =
  QCheck.Test.make ~count:120 ~name:"PerfectRef certain answers = chase oracle"
    arbitrary_kb_and_query (fun (axioms, assertions, q) ->
      match q with
      | None -> true
      | Some q ->
        let t = Ontgen.Qgen.tbox_of_axioms (positive_only axioms) in
        let abox = Dllite.Abox.of_list assertions in
        let sys = Engine.of_abox t abox in
        let depth = List.length q.Cq.body + List.length axioms + 2 in
        let via_rewriting = sorted_answers (Engine.certain_answers sys q) in
        (* chase blow-ups are "instance too wide to check", not verdicts *)
        (match Chase.certain_answers ~max_depth:depth t abox q with
         | via_chase -> via_rewriting = sorted_answers via_chase
         | exception Chase.Overflow -> true))

let prop_presto_matches_chase =
  QCheck.Test.make ~count:80 ~name:"Presto-mode certain answers = chase oracle"
    arbitrary_kb_and_query (fun (axioms, assertions, q) ->
      match q with
      | None -> true
      | Some q ->
        let t = Ontgen.Qgen.tbox_of_axioms (positive_only axioms) in
        let abox = Dllite.Abox.of_list assertions in
        let rewritten, _ = Rewrite.presto_ref t [ q ] in
        let via_presto =
          Cq.evaluate_ucq
            ~source:(Database.source (Vabox.database_of_abox abox))
            rewritten
        in
        let depth = List.length q.Cq.body + List.length axioms + 2 in
        (match Chase.certain_answers ~max_depth:depth t abox q with
         | via_chase -> sorted_answers via_presto = sorted_answers via_chase
         | exception Chase.Overflow -> true))

let prop_consistency_matches_chase =
  QCheck.Test.make ~count:120 ~name:"rewritten consistency = chase violation"
    (QCheck.pair arbitrary_kb_and_query QCheck.unit)
    (fun ((axioms, assertions, _), ()) ->
      let t = Ontgen.Qgen.tbox_of_axioms axioms in
      let abox = Dllite.Abox.of_list assertions in
      let sys = Engine.of_abox t abox in
      match Chase.violates_ni t abox with
      | violated -> Engine.consistent sys = not violated
      | exception Chase.Overflow -> true)

(* ------------- property: mapped certain answers, three ways ---------- *)

(* A fixed source schema under random GAV mappings: every pool concept,
   role or attribute may be mapped (several times, or not at all) onto a
   1–2-atom source query, so unfolding meets unmapped predicates, joins
   and constants in the source, and several mappings per head. *)
let source_individuals = [ "o1"; "o2"; "o3" ]

let gen_source_query answer =
  QCheck.Gen.(
    let term =
      frequency
        [
          (4, map (fun v -> Cq.Var v) (oneofl (answer @ [ "z" ])));
          (1, map (fun c -> Cq.Const c) (oneofl source_individuals));
        ]
    in
    let atom =
      frequency
        [
          (1, map (fun t -> Cq.atom "s1" [ t ]) term);
          (2, map2 (fun t1 t2 -> Cq.atom "s2" [ t1; t2 ]) term term);
          (2, map2 (fun t1 t2 -> Cq.atom "s3" [ t1; t2 ]) term term);
        ]
    in
    let* body = list_size (int_range 1 2) atom in
    (* an answer variable the random atoms missed gets an [s1] atom *)
    let covers v = List.exists (fun a -> List.mem (Cq.Var v) a.Cq.args) body in
    let cover =
      List.filter_map
        (fun v -> if covers v then None else Some (Cq.atom "s1" [ Cq.Var v ]))
        answer
    in
    return (Cq.make answer (body @ cover)))

(* [gen_mapping_with head_term]: [head_term x] fills the head position
   of source answer variable [x] *)
let gen_mapping_with head_term =
  QCheck.Gen.(
    let binary head =
      let* hx = head_term "x" and* hy = head_term "y" in
      map (fun source -> Mapping.make ~source ~target:(head hx hy)) (gen_source_query [ "x"; "y" ])
    in
    frequency
      [
        ( 3,
          let* a = oneofl Ontgen.Qgen.concept_pool and* hx = head_term "x" in
          map
            (fun source ->
              Mapping.make ~source ~target:(Mapping.Concept_head (a, hx)))
            (gen_source_query [ "x" ]) );
        ( 3,
          let* p = oneofl Ontgen.Qgen.role_pool in
          binary (fun hx hy -> Mapping.Role_head (p, hx, hy)) );
        ( 1,
          let* u = oneofl Ontgen.Qgen.attr_pool in
          binary (fun hx hy -> Mapping.Attr_head (u, hx, hy)) );
      ])

let gen_mapping = gen_mapping_with (fun x -> QCheck.Gen.return (v x))

(* heads that now and then pin a position to a source individual; no
   answer variable can take such a constant, so only the boolean and
   epistemic checks below use them *)
let gen_mapping_constant_heads =
  gen_mapping_with (fun x ->
      QCheck.Gen.(frequency [ (3, return (v x)); (1, map c (oneofl source_individuals)) ]))

let gen_source_rows =
  QCheck.Gen.(
    let value = oneofl source_individuals in
    list_size (int_range 3 14)
      (frequency
         [
           (1, map (fun a -> ("s1", [ a ])) value);
           (2, map2 (fun a b -> ("s2", [ a; b ])) value value);
           (2, map2 (fun a b -> ("s3", [ a; b ])) value value);
         ]))

let arbitrary_mapped_kb_of gen_mapping =
  QCheck.make
    ~print:(fun (axioms, mappings, rows, q) ->
      Printf.sprintf "TBox:\n%s\nMappings:\n%s\nRows: %s\nQuery: %s"
        (Tbox.to_string (Ontgen.Qgen.tbox_of_axioms axioms))
        (String.concat "\n"
           (List.map
              (fun m ->
                Printf.sprintf "%s%s <- %s"
                  (Mapping.target_pred m.Mapping.target)
                  (String.concat ","
                     (List.map Cq.show_term (Mapping.target_args m.Mapping.target)))
                  (Cq.to_string m.Mapping.source))
              mappings))
        (String.concat "; "
           (List.map (fun (r, row) -> r ^ "(" ^ String.concat "," row ^ ")") rows))
        (match q with Some q -> Cq.to_string q | None -> "-"))
    QCheck.Gen.(
      quad Ontgen.Qgen.gen_axioms
        (list_size (int_range 3 8) gen_mapping)
        gen_source_rows gen_query)

let database_of_rows rows =
  let db = Database.create () in
  List.iter (fun (rel, row) -> Database.insert db rel row) rows;
  db

let prop_mapped_answers_agree =
  QCheck.Test.make ~count:300
    ~name:"mapped certain answers = chase over materialization = naive unfolding"
    (arbitrary_mapped_kb_of gen_mapping) (fun (axioms, mappings, rows, q) ->
      match q with
      | None -> true
      | Some q ->
        let t = Ontgen.Qgen.tbox_of_axioms (positive_only axioms) in
        let db = database_of_rows rows in
        let via_engine =
          sorted_answers
            (Engine.certain_answers (Engine.create ~tbox:t ~mappings ~database:db ()) q)
        in
        (* the two-minimization reference: rewrite and minimize,
           unfold, minimize again *)
        let via_naive =
          let rewritten, _ = Rewrite.perfect_ref t [ q ] in
          sorted_answers
            (Cq.Naive.evaluate_ucq ~facts:(Database.facts db)
               (Cq.minimize_ucq (Mapping.unfold_ucq mappings rewritten)))
        in
        let depth = List.length q.Cq.body + List.length axioms + 2 in
        via_engine = via_naive
        &&
        match
          Chase.certain_answers ~max_depth:depth t (Mapping.materialize mappings db) q
        with
        | via_chase -> via_engine = sorted_answers via_chase
        | exception Chase.Overflow -> true)

(* The mapped consistency check compiles each violation query through
   the mappings; the chase reads the materialized virtual ABox. *)
let prop_mapped_consistency_matches_chase =
  QCheck.Test.make ~count:300
    ~name:"mapped consistency = chase violation over materialization"
    (arbitrary_mapped_kb_of gen_mapping_constant_heads)
    (fun (axioms, mappings, rows, _) ->
      let t = Ontgen.Qgen.tbox_of_axioms axioms in
      let db = database_of_rows rows in
      let sys = Engine.create ~tbox:t ~mappings ~database:db () in
      match Chase.violates_ni t (Mapping.materialize mappings db) with
      | violated -> Engine.consistent sys = not violated
      | exception Chase.Overflow -> true)

let gen_constraint =
  QCheck.Gen.(
    frequency
      [
        (3, map (fun q -> Constraints.Funct_role q) Ontgen.Qgen.gen_role);
        (1, map (fun u -> Constraints.Funct_attr u) (oneofl Ontgen.Qgen.attr_pool));
        ( 2,
          map2
            (fun a paths -> Constraints.Identification (a, paths))
            (oneofl Ontgen.Qgen.concept_pool)
            (list_size (int_range 1 2) Ontgen.Qgen.gen_role) );
      ])

(* Integrity reads each constrained relation as the mappings retrieve
   it; the reference reads the whole materialized virtual ABox. *)
let prop_mapped_integrity_matches_materialized =
  QCheck.Test.make ~count:300
    ~name:"mapped integrity violations = integrity over materialization"
    (QCheck.pair
       (arbitrary_mapped_kb_of gen_mapping_constant_heads)
       (QCheck.make
          ~print:(fun cs -> String.concat "; " (List.map Constraints.to_string cs))
          QCheck.Gen.(list_size (int_range 1 4) gen_constraint)))
    (fun ((axioms, mappings, rows, _), constraints) ->
      let t = Ontgen.Qgen.tbox_of_axioms axioms in
      let constraints =
        List.filter (fun c -> Constraints.well_formed t [ c ] = []) constraints
      in
      let db = database_of_rows rows in
      let sys = Engine.create ~constraints ~tbox:t ~mappings ~database:db () in
      let materialized =
        Database.facts (Vabox.database_of_abox (Mapping.materialize mappings db))
      in
      List.sort compare (Engine.integrity_violations sys)
      = List.sort compare (Obda.Integrity.check ~facts:materialized constraints))

(* ------------- deterministic: a high-band link at Galen scale --------- *)

(* The university instance under its TBox plus a Galen-profile module,
   the module concept with the most subsumees linked under Person.  The
   saturation of [x <- Person(x)] then has hundreds of disjuncts, of
   which unfolding keeps a handful: compiling must give the same UCQ,
   up to equivalent disjuncts, as minimizing before and after
   unfolding, and the same answers. *)
let test_high_band_link () =
  let module_tbox =
    Ontgen.Generator.generate ~seed:0x6A1E ~prefix:"g"
      (Ontgen.Generator.scale 0.01 Ontgen.Profiles.galen)
  in
  let cls = Quonto.Classify.classify module_tbox in
  let subsumees c =
    List.length (Quonto.Classify.subsumees cls (Syntax.E_concept (Syntax.Atomic c)))
  in
  let top =
    List.fold_left
      (fun best c -> if subsumees c > subsumees best then c else best)
      "gC0"
      (Signature.concepts (Tbox.signature module_tbox))
  in
  Alcotest.(check bool) "high band" true (subsumees top > 100);
  let tbox =
    Tbox.add
      (Syntax.Concept_incl (Syntax.Atomic top, Syntax.C_basic (Syntax.Atomic "Person")))
      (Tbox.union Ontgen.Datagen.university_tbox module_tbox)
  in
  let instance = Ontgen.Datagen.generate ~persons:60 ~courses:10 () in
  let mappings = instance.Ontgen.Datagen.mappings in
  let database = instance.Ontgen.Datagen.database in
  let engine = Engine.create ~tbox ~mappings ~database () in
  let q = Cq.make [ "x" ] [ Cq.atom (Vabox.concept_pred "Person") [ v "x" ] ] in
  let compiled = Engine.compile engine [ q ] in
  let rewritten, _ = Rewrite.perfect_ref tbox [ q ] in
  Alcotest.(check bool) "saturation is large" true (List.length rewritten > 100);
  let before = Cq.minimize_ucq (Mapping.unfold_ucq mappings rewritten) in
  let equivalent a b = Cq.contains a b && Cq.contains b a in
  let covered xs ys = List.for_all (fun x -> List.exists (equivalent x) ys) xs in
  Alcotest.(check int) "same disjunct count" (List.length before) (List.length compiled);
  Alcotest.(check bool) "same disjuncts" true
    (covered compiled before && covered before compiled);
  let source = Database.source database in
  check_answers "same answers"
    (Cq.evaluate_ucq ~source before)
    (Engine.certain_answers engine q);
  check_answers "every person"
    (List.init 60 (fun i -> [ Printf.sprintf "p%d" i ]))
    (Engine.certain_answers engine q)

let () =
  Alcotest.run "obda"
    [
      ( "cq",
        [
          Alcotest.test_case "bound variables" `Quick test_cq_bound_vars;
          Alcotest.test_case "head check" `Quick test_cq_make_checks;
          Alcotest.test_case "evaluation" `Quick test_cq_evaluate;
          Alcotest.test_case "containment" `Quick test_cq_containment;
          Alcotest.test_case "ucq minimization" `Quick test_cq_minimize;
        ] );
      ( "database",
        [
          Alcotest.test_case "store" `Quick test_database;
          Alcotest.test_case "ordering contract" `Quick
            test_database_ordering_contract;
          Alcotest.test_case "pattern-index probes" `Quick test_database_probe;
        ] );
      ( "executor",
        [
          Alcotest.test_case "cross products" `Quick test_exec_cross_product;
          Alcotest.test_case "all-constant atoms" `Quick
            test_exec_all_constant_atoms;
          Alcotest.test_case "repeated variables" `Quick test_exec_repeated_vars;
          Alcotest.test_case "empty relations" `Quick test_exec_empty_relations;
        ] );
      ( "rewrite",
        [
          Alcotest.test_case "atomic hierarchy" `Quick test_rewrite_atomic_hierarchy;
          Alcotest.test_case "existential" `Quick test_rewrite_exists;
          Alcotest.test_case "bound blocks existential" `Quick
            test_rewrite_exists_blocked_when_bound;
          Alcotest.test_case "reduce step" `Quick test_rewrite_reduce_enables;
          Alcotest.test_case "qualified existential" `Quick test_rewrite_qualified;
          Alcotest.test_case "inverse roles" `Quick test_rewrite_inverse_role;
          Alcotest.test_case "presto equivalence" `Quick test_presto_equivalent;
        ] );
      ( "chase",
        [
          Alcotest.test_case "canonical model" `Quick test_chase_basic;
          Alcotest.test_case "inconsistency" `Quick test_chase_inconsistency;
        ] );
      ( "mapping",
        [
          Alcotest.test_case "materialize" `Quick test_mapping_materialize;
          Alcotest.test_case "unfold = materialize" `Quick
            test_mapping_unfold_matches_materialize;
          Alcotest.test_case "dead atoms" `Quick test_mapping_unfold_dead_atom;
          Alcotest.test_case "constant heads bind both ways" `Quick
            test_mapping_unfold_constant_head;
          Alcotest.test_case "unfolding is deterministic across domains" `Quick
            test_mapping_unfold_deterministic;
        ] );
      ( "engine",
        [
          Alcotest.test_case "end to end" `Quick test_engine_end_to_end;
          Alcotest.test_case "inconsistency report" `Quick test_engine_inconsistency;
          Alcotest.test_case "abox mode" `Quick test_engine_abox_mode;
          Alcotest.test_case "high-band link compiles as before" `Quick
            test_high_band_link;
          Alcotest.test_case "compile is deterministic across domains" `Quick
            test_compile_fresh_vars_deterministic;
        ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [
            prop_rewriting_matches_chase;
            prop_presto_matches_chase;
            prop_mapped_answers_agree;
            prop_consistency_matches_chase;
            prop_mapped_consistency_matches_chase;
            prop_mapped_integrity_matches_materialized;
            prop_indexed_matches_naive;
            prop_index_consistency;
            prop_delta_matches_full;
          ] );
      ( "merge",
        [
          Alcotest.test_case "1M-tuple merge = sort of the union" `Quick
            test_merge_answers_large;
        ] );
    ]
