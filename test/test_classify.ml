(* Tests for the paper's core contribution: the digraph encoding
   (Definition 1), Phi_T via transitive closure (Theorem 1),
   computeUnsat / Omega_T, the deductive closure and logical
   implication.  The property tests compare everything against the
   independent tableau oracle. *)

open Dllite
module Encoding = Quonto.Encoding
module Classify = Quonto.Classify
module Unsat = Quonto.Unsat
module Deductive = Quonto.Deductive
module Implication = Quonto.Implication
module Oracle = Owlfrag.Oracle

let parse s =
  match Parser.tbox_of_string s with
  | Ok t -> t
  | Error e -> Alcotest.failf "parse error: %s" e

let concept a = Syntax.E_concept (Syntax.Atomic a)
let exists q = Syntax.E_concept (Syntax.Exists q)
let role p = Syntax.E_role (Syntax.Direct p)

(* ----------------------------- encoding ------------------------------ *)

let test_encoding_nodes () =
  let t = parse {|
    concept A
    role p
    attr u
  |} in
  let enc = Encoding.build t in
  (* A; p, p^-, exists p, exists p^-; u, delta(u) *)
  Alcotest.(check int) "node count" 7 (Encoding.node_count enc);
  Alcotest.(check int) "concept nodes" 4 (List.length (Encoding.concept_nodes enc));
  Alcotest.(check int) "role nodes" 2 (List.length (Encoding.role_nodes enc));
  Alcotest.(check int) "attr nodes" 1 (List.length (Encoding.attr_nodes enc))

let test_encoding_role_incl_arcs () =
  let t = parse {|
    role p
    role q
    p [= q
  |} in
  let enc = Encoding.build t in
  let g = Encoding.graph enc in
  let n e = Encoding.node enc e in
  (* Definition 1 item 4: four arcs per role inclusion *)
  Alcotest.(check bool) "p->q" true
    (Graphlib.Graph.mem_edge g (n (role "p")) (n (role "q")));
  Alcotest.(check bool) "p^- -> q^-" true
    (Graphlib.Graph.mem_edge g
       (n (Syntax.E_role (Syntax.Inverse "p")))
       (n (Syntax.E_role (Syntax.Inverse "q"))));
  Alcotest.(check bool) "Ep -> Eq" true
    (Graphlib.Graph.mem_edge g
       (n (exists (Syntax.Direct "p")))
       (n (exists (Syntax.Direct "q"))));
  Alcotest.(check bool) "Ep^- -> Eq^-" true
    (Graphlib.Graph.mem_edge g
       (n (exists (Syntax.Inverse "p")))
       (n (exists (Syntax.Inverse "q"))));
  Alcotest.(check int) "exactly four arcs" 4 (Graphlib.Graph.edge_count g)

let test_encoding_qualified_arc () =
  let t = parse {|
    role p
    A [= exists p . B
  |} in
  let enc = Encoding.build t in
  let g = Encoding.graph enc in
  Alcotest.(check bool) "A -> Ep (qualifier dropped in graph)" true
    (Graphlib.Graph.mem_edge g
       (Encoding.node enc (concept "A"))
       (Encoding.node enc (exists (Syntax.Direct "p"))));
  Alcotest.(check int) "one arc" 1 (Graphlib.Graph.edge_count g);
  Alcotest.(check int) "qualifier recorded" 1
    (List.length enc.Encoding.qualified_axioms)

let test_encoding_negative_no_arc () =
  let t = parse {|
    A [= not B
  |} in
  let enc = Encoding.build t in
  Alcotest.(check int) "no arcs" 0 (Graphlib.Graph.edge_count (Encoding.graph enc));
  Alcotest.(check int) "one negative pair" 1 (List.length enc.Encoding.negative_pairs)

(* --------------------------- classification -------------------------- *)

let test_classify_chain () =
  let cls = Classify.classify (parse {|
    A [= B
    B [= C
  |}) in
  Alcotest.(check bool) "A [= C inferred" true (Classify.subsumes cls (concept "A") (concept "C"));
  Alcotest.(check bool) "C not [= A" false (Classify.subsumes cls (concept "C") (concept "A"));
  Alcotest.(check bool) "reflexive" true (Classify.subsumes cls (concept "A") (concept "A"))

let test_classify_role_to_concept_propagation () =
  (* role inclusion propagates to existentials: p [= q, A [= exists p
     entails A [= exists q *)
  let cls =
    Classify.classify (parse {|
      role p
      role q
      p [= q
      A [= exists p
    |})
  in
  Alcotest.(check bool) "A [= exists q" true
    (Classify.subsumes cls (concept "A") (exists (Syntax.Direct "q")))

let test_classify_inverse_handling () =
  (* p [= q^- : then p^- [= q and exists p [= exists q^- *)
  let cls = Classify.classify (parse {|
    role p
    role q
    p [= q^-
  |}) in
  Alcotest.(check bool) "p^- [= q" true
    (Classify.subsumes cls (Syntax.E_role (Syntax.Inverse "p")) (role "q"));
  Alcotest.(check bool) "exists p [= exists q^-" true
    (Classify.subsumes cls (exists (Syntax.Direct "p")) (exists (Syntax.Inverse "q")))

let test_classify_unsat_omega () =
  (* A [= B, A [= not B makes A unsatisfiable, hence A [= anything *)
  let cls = Classify.classify (parse {|
    A [= B
    A [= not B
    concept Z
  |}) in
  Alcotest.(check bool) "A unsat" true (Classify.is_unsat cls (concept "A"));
  Alcotest.(check bool) "B sat" false (Classify.is_unsat cls (concept "B"));
  Alcotest.(check bool) "Omega: A [= Z" true (Classify.subsumes cls (concept "A") (concept "Z"))

let test_unsat_propagation_to_predecessors () =
  let cls =
    Classify.classify
      (parse {|
        A0 [= A
        A [= B
        A [= not B
      |})
  in
  Alcotest.(check bool) "predecessor unsat" true (Classify.is_unsat cls (concept "A0"))

let test_unsat_role_components () =
  (* exists p [= A, exists p [= not A: the domain of p is unsat, hence
     p, p^-, exists p^- are all unsat *)
  let cls =
    Classify.classify
      (parse {|
        role p
        exists p [= A
        exists p [= not A
      |})
  in
  Alcotest.(check bool) "p unsat" true (Classify.is_unsat cls (role "p"));
  Alcotest.(check bool) "p^- unsat" true
    (Classify.is_unsat cls (Syntax.E_role (Syntax.Inverse "p")));
  Alcotest.(check bool) "range unsat" true
    (Classify.is_unsat cls (exists (Syntax.Inverse "p")))

let test_unsat_qualified_rule () =
  (* B [= exists p . A with A unsat makes B unsat *)
  let cls =
    Classify.classify
      (parse {|
        role p
        A [= C
        A [= not C
        B [= exists p . A
      |})
  in
  Alcotest.(check bool) "A unsat" true (Classify.is_unsat cls (concept "A"));
  Alcotest.(check bool) "B unsat via qualifier" true (Classify.is_unsat cls (concept "B"))

let test_unsat_attr () =
  let cls =
    Classify.classify
      (parse {|
        attr u
        delta(u) [= A
        delta(u) [= not A
      |})
  in
  Alcotest.(check bool) "u unsat" true (Classify.is_unsat cls (Syntax.E_attr "u"));
  Alcotest.(check bool) "delta(u) unsat" true
    (Classify.is_unsat cls (Syntax.E_concept (Syntax.Attr_domain "u")))

let test_coherent () =
  let coherent_t = Classify.classify (parse "A [= B") in
  Alcotest.(check bool) "coherent" true (Unsat.coherent (Classify.unsat coherent_t));
  let incoherent_t = Classify.classify (parse "A [= B\nA [= not B") in
  Alcotest.(check bool) "incoherent" false (Unsat.coherent (Classify.unsat incoherent_t))

let test_name_level_output () =
  let cls = Classify.classify (parse {|
    A [= B
    B [= C
    role p
    role q
    p [= q
  |}) in
  let subs = Classify.name_level cls in
  Alcotest.(check bool) "A<=B" true (List.mem (Classify.Concept_sub ("A", "B")) subs);
  Alcotest.(check bool) "A<=C" true (List.mem (Classify.Concept_sub ("A", "C")) subs);
  Alcotest.(check bool) "p<=q" true (List.mem (Classify.Role_sub ("p", "q")) subs);
  Alcotest.(check bool) "no reflexive" false
    (List.mem (Classify.Concept_sub ("A", "A")) subs)

(* The definitional classification between names: every ordered pair
   of distinct same-sort names that [subsumes] accepts, in the order
   [name_level] promises (sorts in declaration order, then by name). *)
let definitional_name_level cls =
  List.concat_map
    (fun sort ->
      let names = Classify.names cls sort in
      List.concat_map
        (fun a ->
          List.filter_map
            (fun b ->
              if
                a <> b
                && Classify.subsumes cls (Classify.expr_of_name sort a)
                     (Classify.expr_of_name sort b)
              then Some (Classify.subsumption sort a b)
              else None)
            names)
        names)
    Classify.[ Concepts; Roles; Attributes ]
  |> List.sort_uniq Stdlib.compare

let test_name_level_ontology_edit_shape () =
  (* the university TBox plus a Galen module and one edit link, as the
     ontology-edit workload loads it, at a smaller module scale *)
  let galen =
    Ontgen.Generator.generate ~seed:0x6A1E ~prefix:"g"
      (Ontgen.Generator.scale 0.01 Ontgen.Profiles.galen)
  in
  let t =
    Tbox.add
      (Syntax.Concept_incl (Syntax.Atomic "gC3", Syntax.C_basic (Syntax.Atomic "Person")))
      (Tbox.union Ontgen.Datagen.university_tbox galen)
  in
  let cls = Classify.classify t in
  let subs = Classify.name_level cls in
  Alcotest.(check bool) "some subsumptions" true (List.length subs > 100);
  Alcotest.(check bool) "= definitional list" true (subs = definitional_name_level cls)

let test_equivalence_classes () =
  let cls = Classify.classify (parse {|
    A [= B
    B [= A
    concept C
  |}) in
  let classes = Classify.equivalence_classes cls in
  Alcotest.(check bool) "A~B grouped" true
    (List.exists (fun c -> List.sort compare c = [ "A"; "B" ]) classes);
  Alcotest.(check bool) "C alone" true (List.mem [ "C" ] classes)

let test_equivalence_classes_unsat () =
  (* A and D are each unsatisfiable, so Omega_T makes them mutually
     subsuming: they must land in one class even though the digraph has
     no cycle through them *)
  let cls = Classify.classify (parse {|
    A [= B
    A [= not B
    D [= E
    D [= not E
  |}) in
  let classes = Classify.equivalence_classes cls in
  Alcotest.(check bool) "unsat names merged" true
    (List.exists (fun c -> List.sort compare c = [ "A"; "D" ]) classes);
  Alcotest.(check bool) "B alone" true (List.mem [ "B" ] classes);
  Alcotest.(check bool) "E alone" true (List.mem [ "E" ] classes)

(* ------------------------- deductive closure ------------------------- *)

let test_deductive_qualified () =
  (* A [= exists p . B, B [= C, p [= q  entails  A [= exists q . C *)
  let d =
    Deductive.compute
      (parse {|
        role p
        role q
        p [= q
        A [= exists p . B
        B [= C
      |})
  in
  Alcotest.(check bool) "inferred qualified" true
    (Deductive.entails d
       (Syntax.Concept_incl (Syntax.Atomic "A", Syntax.C_exists_qual (Syntax.Direct "q", "C"))));
  Alcotest.(check bool) "not the converse" false
    (Deductive.entails d
       (Syntax.Concept_incl (Syntax.Atomic "C", Syntax.C_exists_qual (Syntax.Direct "q", "A"))))

let test_deductive_qualified_via_range () =
  (* A [= exists p, exists p^- [= B  entails  A [= exists p . B *)
  let d =
    Deductive.compute (parse {|
      role p
      A [= exists p
      exists p^- [= B
    |})
  in
  Alcotest.(check bool) "range typing gives qualification" true
    (Deductive.entails d
       (Syntax.Concept_incl (Syntax.Atomic "A", Syntax.C_exists_qual (Syntax.Direct "p", "B"))))

let test_deductive_negative () =
  (* A [= B, B [= not C, D [= C  entails  A [= not D and D [= not A *)
  let d = Deductive.compute (parse {|
    A [= B
    B [= not C
    D [= C
  |}) in
  Alcotest.(check bool) "inferred NI" true
    (Deductive.entails d
       (Syntax.Concept_incl (Syntax.Atomic "A", Syntax.C_neg (Syntax.Atomic "D"))));
  Alcotest.(check bool) "NI symmetric" true
    (Deductive.entails d
       (Syntax.Concept_incl (Syntax.Atomic "D", Syntax.C_neg (Syntax.Atomic "A"))));
  Alcotest.(check bool) "unrelated not disjoint" false
    (Deductive.entails d
       (Syntax.Concept_incl (Syntax.Atomic "A", Syntax.C_neg (Syntax.Atomic "B"))))

let test_deductive_role_disjoint_via_domains () =
  let d =
    Deductive.compute
      (parse {|
        role p
        role q
        exists p [= A
        exists q [= not A
      |})
  in
  Alcotest.(check bool) "role NI via domain disjointness" true
    (Deductive.entails d
       (Syntax.Role_incl (Syntax.Direct "p", Syntax.R_neg (Syntax.Direct "q"))))

let test_closure_axioms_listing () =
  let d = Deductive.compute (parse {|
    A [= B
    B [= C
  |}) in
  let closure = Deductive.closure_axioms d in
  Alcotest.(check bool) "contains A [= C" true
    (List.mem
       (Syntax.Concept_incl (Syntax.Atomic "A", Syntax.C_basic (Syntax.Atomic "C")))
       closure);
  (* soundness: everything in the closure is entailed per the oracle *)
  let o = Oracle.of_tbox (parse "A [= B\nB [= C") in
  List.iter
    (fun ax ->
      if not (Oracle.entails o ax) then
        Alcotest.failf "unsound closure axiom: %s" (Syntax.axiom_to_string ax))
    closure

(* ------------------------ on-demand implication ---------------------- *)

let test_implication_agrees_with_deductive () =
  let source = {|
    role p
    role q
    p [= q
    A [= exists p . B
    B [= C
    C [= not D
  |} in
  let t = parse source in
  let d = Deductive.compute t in
  let i = Implication.prepare t in
  let queries =
    [
      Syntax.Concept_incl (Syntax.Atomic "A", Syntax.C_exists_qual (Syntax.Direct "q", "C"));
      Syntax.Concept_incl (Syntax.Atomic "A", Syntax.C_basic (Syntax.Exists (Syntax.Direct "q")));
      Syntax.Concept_incl (Syntax.Atomic "B", Syntax.C_neg (Syntax.Atomic "D"));
      Syntax.Concept_incl (Syntax.Atomic "D", Syntax.C_basic (Syntax.Atomic "A"));
      Syntax.Role_incl (Syntax.Direct "p", Syntax.R_role (Syntax.Direct "q"));
      Syntax.Role_incl (Syntax.Direct "q", Syntax.R_role (Syntax.Direct "p"));
    ]
  in
  List.iter
    (fun ax ->
      Alcotest.(check bool)
        (Syntax.axiom_to_string ax)
        (Deductive.entails d ax) (Implication.entails i ax))
    queries

(* ---------------------- properties vs the oracle --------------------- *)

let forall_exprs f =
  (* all basic expressions over the small test pools *)
  let concepts =
    List.map (fun a -> Syntax.Atomic a) Ontgen.Qgen.concept_pool
    @ List.concat_map
        (fun p -> [ Syntax.Exists (Syntax.Direct p); Syntax.Exists (Syntax.Inverse p) ])
        Ontgen.Qgen.role_pool
    @ List.map (fun u -> Syntax.Attr_domain u) Ontgen.Qgen.attr_pool
  in
  let roles =
    List.concat_map
      (fun p -> [ Syntax.Direct p; Syntax.Inverse p ])
      Ontgen.Qgen.role_pool
  in
  List.for_all (fun b -> f (Syntax.E_concept b)) concepts
  && List.for_all (fun q -> f (Syntax.E_role q)) roles
  && List.for_all (fun u -> f (Syntax.E_attr u)) Ontgen.Qgen.attr_pool

(* the tableau oracle can exhaust its work budget on pathological random
   TBoxes (deep deterministic completions); those cases are skipped —
   the verdict is unknown, not wrong *)
let or_skip f = try f () with Owlfrag.Tableau.Budget_exhausted -> true

let prop_classification_matches_oracle =
  QCheck.Test.make ~count:150 ~name:"graph classification = tableau oracle"
    Ontgen.Qgen.arbitrary_tbox (fun axioms ->
      or_skip (fun () ->
          let t = Ontgen.Qgen.tbox_of_axioms axioms in
          let cls = Classify.classify t in
          let o = Oracle.of_tbox t in
          forall_exprs (fun e1 ->
              forall_exprs (fun e2 ->
                  (not (Quonto.Encoding.same_sort e1 e2))
                  || Classify.subsumes cls e1 e2 = Oracle.subsumes o e1 e2))))

let prop_unsat_matches_oracle =
  QCheck.Test.make ~count:150 ~name:"computeUnsat = tableau unsatisfiability"
    Ontgen.Qgen.arbitrary_tbox (fun axioms ->
      or_skip (fun () ->
          let t = Ontgen.Qgen.tbox_of_axioms axioms in
          let cls = Classify.classify t in
          let o = Oracle.of_tbox t in
          forall_exprs (fun e -> Classify.is_unsat cls e = Oracle.is_unsat o e)))

let prop_implication_matches_oracle =
  QCheck.Test.make ~count:150 ~name:"logical implication = tableau oracle"
    (QCheck.pair Ontgen.Qgen.arbitrary_tbox Ontgen.Qgen.arbitrary_axiom)
    (fun (axioms, query) ->
      or_skip (fun () ->
          let t = Ontgen.Qgen.tbox_of_axioms axioms in
          let d = Deductive.compute t in
          let i = Implication.prepare t in
          let o = Oracle.of_tbox t in
          let expected = Oracle.entails o query in
          Deductive.entails d query = expected && Implication.entails i query = expected))

(* the closure's pool width is the one remaining closure choice: the
   classification inline and on pools of width 1, 2 and 4 must agree *)
let classify_pools =
  lazy (List.map (fun j -> Parallel.Pool.create ~jobs:j ()) [ 1; 2; 4 ])

let prop_closure_algorithms_agree_on_classification =
  QCheck.Test.make ~count:100 ~name:"classification independent of closure algorithm"
    Ontgen.Qgen.arbitrary_tbox (fun axioms ->
      let t = Ontgen.Qgen.tbox_of_axioms axioms in
      let inline = Classify.classify t in
      List.for_all
        (fun pool ->
          let c = Classify.classify ~pool t in
          Classify.name_level c = Classify.name_level inline
          && Classify.equivalence_classes c = Classify.equivalence_classes inline)
        (Lazy.force classify_pools))

(* Casegen TBoxes with a crossing witness seeded in: [B ⊑ ∃q.A] beside
   a disjointness between [A] and [∃q⁻], in either orientation (the
   shape of [∃p⁻ ⊑ ¬C, ∃p⁻ ⊑ ∃p.C]); the generated axioms alone rarely
   make a witness cross a disjointness *)
let crossing_tbox seed =
  let rng = Ontgen.Rng.create seed in
  let base = Ontgen.Casegen.tbox rng in
  let q = Ontgen.Casegen.gen_role rng in
  let a = Ontgen.Rng.pick rng Ontgen.Casegen.concept_pool in
  let range = Syntax.Exists (Syntax.role_inverse q) in
  let disjoint =
    if Ontgen.Rng.bool rng 0.5 then
      Syntax.Concept_incl (range, Syntax.C_neg (Syntax.Atomic a))
    else Syntax.Concept_incl (Syntax.Atomic a, Syntax.C_neg range)
  in
  let witness =
    Syntax.Concept_incl (Ontgen.Casegen.gen_basic rng, Syntax.C_exists_qual (q, a))
  in
  Ontgen.Qgen.tbox_of_axioms (disjoint :: witness :: Tbox.axioms base)

let prop_unsat_matches_reference =
  QCheck.Test.make ~count:1000 ~name:"Unsat.compute = reference"
    (QCheck.make
       ~print:(fun seed ->
         String.concat "\n"
           (List.map Syntax.axiom_to_string (Tbox.axioms (crossing_tbox seed))))
       QCheck.Gen.(int_bound 1_000_000_000))
    (fun seed ->
      let enc = Quonto.Encoding.build (crossing_tbox seed) in
      let unsat = Unsat.compute enc in
      Array.init (Quonto.Encoding.node_count enc) (Unsat.is_unsat_node unsat)
      = Unsat_reference.compute enc)

let prop_deductive_closure_sound =
  QCheck.Test.make ~count:80 ~name:"deductive closure sound vs oracle"
    Ontgen.Qgen.arbitrary_tbox (fun axioms ->
      or_skip (fun () ->
          let t = Ontgen.Qgen.tbox_of_axioms axioms in
          let d = Deductive.compute t in
          let o = Oracle.of_tbox t in
          List.for_all (Oracle.entails o) (Deductive.closure_axioms d)))

let prop_name_level_definitional =
  QCheck.Test.make ~count:300 ~name:"name_level = definitional pair list"
    QCheck.(make ~print:string_of_int Gen.nat)
    (fun seed ->
      let cls = Classify.classify (Ontgen.Casegen.tbox (Ontgen.Rng.create seed)) in
      Classify.name_level cls = definitional_name_level cls)

let () =
  Alcotest.run "classify"
    [
      ( "encoding",
        [
          Alcotest.test_case "signature nodes" `Quick test_encoding_nodes;
          Alcotest.test_case "role inclusion arcs" `Quick test_encoding_role_incl_arcs;
          Alcotest.test_case "qualified arc" `Quick test_encoding_qualified_arc;
          Alcotest.test_case "negative inclusions" `Quick test_encoding_negative_no_arc;
        ] );
      ( "phi_t",
        [
          Alcotest.test_case "chains" `Quick test_classify_chain;
          Alcotest.test_case "role->existential" `Quick
            test_classify_role_to_concept_propagation;
          Alcotest.test_case "inverses" `Quick test_classify_inverse_handling;
          Alcotest.test_case "name-level output" `Quick test_name_level_output;
          Alcotest.test_case "name-level on ontology-edit shape" `Quick
            test_name_level_ontology_edit_shape;
          Alcotest.test_case "equivalence classes" `Quick test_equivalence_classes;
          Alcotest.test_case "equivalence classes merge unsat" `Quick
            test_equivalence_classes_unsat;
        ] );
      ( "omega_t",
        [
          Alcotest.test_case "unsat subsumes all" `Quick test_classify_unsat_omega;
          Alcotest.test_case "predecessor propagation" `Quick
            test_unsat_propagation_to_predecessors;
          Alcotest.test_case "role components" `Quick test_unsat_role_components;
          Alcotest.test_case "qualified rule" `Quick test_unsat_qualified_rule;
          Alcotest.test_case "attributes" `Quick test_unsat_attr;
          Alcotest.test_case "coherence" `Quick test_coherent;
        ] );
      ( "deductive",
        [
          Alcotest.test_case "qualified inference" `Quick test_deductive_qualified;
          Alcotest.test_case "qualified via range" `Quick test_deductive_qualified_via_range;
          Alcotest.test_case "negative inference" `Quick test_deductive_negative;
          Alcotest.test_case "role NI via domains" `Quick
            test_deductive_role_disjoint_via_domains;
          Alcotest.test_case "closure listing" `Quick test_closure_axioms_listing;
          Alcotest.test_case "implication agreement" `Quick
            test_implication_agrees_with_deductive;
        ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [
            prop_classification_matches_oracle;
            prop_unsat_matches_oracle;
            prop_implication_matches_oracle;
            prop_closure_algorithms_agree_on_classification;
            prop_unsat_matches_reference;
            prop_name_level_definitional;
            prop_deductive_closure_sound;
          ] );
    ]
