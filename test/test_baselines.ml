(* Tests for the simulated competing reasoners: the naive saturation
   classifier, the consequence-based (CB) classifier, and the tableau
   personas.  The central property: on concept hierarchies, everyone
   agrees with the digraph classifier; CB's documented incompleteness is
   confined to the property hierarchy. *)

open Dllite
module Naive = Baselines.Naive
module Cb = Baselines.Cb
module Personas = Baselines.Personas
module Classify = Quonto.Classify

let parse s =
  match Parser.tbox_of_string s with
  | Ok t -> t
  | Error e -> Alcotest.failf "parse error: %s" e

let pairs = Alcotest.(list (pair string string))

let quonto_concept_pairs t =
  List.sort compare (Classify.concept_hierarchy (Classify.classify t))

let quonto_role_pairs t =
  List.sort compare (Classify.role_hierarchy (Classify.classify t))

(* ------------------------------- naive ------------------------------- *)

let test_naive_agrees_simple () =
  let t = parse {|
    A [= B
    B [= C
    role p
    exists p [= A
  |} in
  let n = Naive.classify t in
  Alcotest.check pairs "concept hierarchy" (quonto_concept_pairs t)
    (Naive.concept_hierarchy n)

let test_naive_unsat () =
  let t = parse {|
    A [= B
    A [= not B
  |} in
  let n = Naive.classify t in
  Alcotest.(check bool) "A unsat" true
    (Naive.is_unsat n (Syntax.E_concept (Syntax.Atomic "A")));
  Alcotest.(check bool) "B sat" false
    (Naive.is_unsat n (Syntax.E_concept (Syntax.Atomic "B")))

let prop_naive_matches_quonto =
  QCheck.Test.make ~count:80 ~name:"naive saturation = digraph classification"
    Ontgen.Qgen.arbitrary_tbox (fun axioms ->
      let t = Ontgen.Qgen.tbox_of_axioms axioms in
      let n = Naive.classify t in
      let cls = Classify.classify t in
      Naive.concept_hierarchy n = List.sort compare (Classify.concept_hierarchy cls))

(* --------------------------------- cb -------------------------------- *)

let test_cb_concept_hierarchy () =
  let t = parse {|
    role p
    A [= B
    B [= exists p
    exists p [= C
    p [= q
  |} in
  let cb = Cb.classify t in
  Alcotest.check pairs "concepts complete" (quonto_concept_pairs t)
    (Cb.concept_hierarchy cb)

let test_cb_role_hierarchy_incomplete () =
  (* told chain p ⊑ q ⊑ r: full classification infers p ⊑ r, the CB
     simulation (like the CB reasoner per the paper) reports only told
     pairs *)
  let t = parse {|
    role p
    role q
    role r
    p [= q
    q [= r
  |} in
  let cb = Cb.classify t in
  Alcotest.check pairs "told only" [ ("p", "q"); ("q", "r") ] (Cb.role_hierarchy cb);
  Alcotest.(check bool) "quonto is complete here" true
    (List.mem ("p", "r") (quonto_role_pairs t))

let prop_cb_concepts_match_quonto_positive =
  (* restricted to positive TBoxes: CB's incoherence propagation is
     deliberately weaker than computeUnsat on the exotic NI interactions *)
  QCheck.Test.make ~count:80 ~name:"CB concept hierarchy = digraph (positive TBoxes)"
    Ontgen.Qgen.arbitrary_tbox (fun axioms ->
      let axioms = List.filter Syntax.is_positive axioms in
      let t = Ontgen.Qgen.tbox_of_axioms axioms in
      let cb = Cb.classify t in
      let cls = Classify.classify t in
      Cb.concept_hierarchy cb = List.sort compare (Classify.concept_hierarchy cls))

let test_cb_figure1_profiles () =
  (* the Figure-1 shapes have deep told chains, which the small random
     TBoxes above never reach *)
  List.iter
    (fun profile ->
      let t = Ontgen.Generator.generate (Ontgen.Generator.scale 0.02 profile) in
      let t = Tbox.of_axioms (List.filter Syntax.is_positive (Tbox.axioms t)) in
      Alcotest.check pairs profile.Ontgen.Generator.label (quonto_concept_pairs t)
        (Cb.concept_hierarchy (Cb.classify t)))
    Ontgen.Profiles.figure1

(* ------------------------------ personas ----------------------------- *)

let all_personas = [ Personas.pellet; Personas.fact_plus_plus; Personas.hermit ]

let test_personas_agree () =
  let t =
    parse
      {|
        role p
        Manager [= Employee
        Employee [= Person
        Employee [= exists p
        exists p^- [= Org
        Intern [= Person
        Intern [= not Manager
      |}
  in
  let expected = quonto_concept_pairs t in
  List.iter
    (fun persona ->
      let r = Personas.classify persona t in
      Alcotest.check pairs
        (persona.Personas.name ^ " concepts")
        expected r.Personas.concept_pairs;
      Alcotest.check pairs
        (persona.Personas.name ^ " roles")
        (quonto_role_pairs t) r.Personas.role_pairs)
    all_personas

let test_personas_unsat_names () =
  let t = parse {|
    A [= B
    A [= not B
    concept Z
  |} in
  let r = Personas.classify Personas.pellet t in
  Alcotest.(check (list string)) "pellet finds unsat" [ "A" ] r.Personas.unsat_names;
  (* an unsat name is subsumed by every name *)
  Alcotest.(check bool) "A [= Z" true (List.mem ("A", "Z") r.Personas.concept_pairs)

let test_enhanced_traversal_fewer_tests () =
  (* on a pure chain the taxonomy walk must beat brute force *)
  let axioms =
    List.init 19 (fun i ->
        Syntax.Concept_incl
          ( Syntax.Atomic (Printf.sprintf "C%d" (i + 1)),
            Syntax.C_basic (Syntax.Atomic (Printf.sprintf "C%d" i)) ))
  in
  let t = Tbox.of_axioms axioms in
  let brute = Personas.classify { Personas.pellet with told_subsumers = false } t in
  let enhanced =
    Personas.classify { Personas.fact_plus_plus with told_subsumers = false } t
  in
  Alcotest.(check bool) "same answers" true
    (brute.Personas.concept_pairs = enhanced.Personas.concept_pairs);
  Alcotest.(check bool)
    (Printf.sprintf "fewer tests (%d < %d)" enhanced.Personas.subsumption_tests
       brute.Personas.subsumption_tests)
    true
    (enhanced.Personas.subsumption_tests < brute.Personas.subsumption_tests)

let test_persona_timeout () =
  let profile =
    Ontgen.Generator.scale 0.1 Ontgen.Profiles.galen
  in
  let t = Ontgen.Generator.generate profile in
  match Personas.classify ~deadline:0.05 Personas.pellet t with
  | _ -> Alcotest.fail "expected timeout on Galen-like profile"
  | exception Personas.Timed_out -> ()

let test_persona_timeout_stops () =
  (* the deadline stops the work, not just the verdict: a persona
     finishes by its deadline or raises within a second after it.
     Galen x0.1 always times out; on AEO most names are unsat, so
     Pellet's pair scan runs long stretches without a tableau test *)
  List.iter
    (fun (profile, scale, deadline, must_time_out) ->
      let t = Ontgen.Generator.generate (Ontgen.Generator.scale scale profile) in
      List.iter
        (fun persona ->
          let who =
            Printf.sprintf "%s on %s" persona.Personas.name profile.Ontgen.Generator.label
          in
          let t0 = Unix.gettimeofday () in
          let timed_out =
            match Personas.classify ~deadline persona t with
            | _ -> false
            | exception Personas.Timed_out -> true
          in
          let elapsed = Unix.gettimeofday () -. t0 in
          if must_time_out && not timed_out then Alcotest.failf "%s: expected a timeout" who;
          if elapsed > deadline +. if timed_out then 1.0 else 0.1 then
            Alcotest.failf "%s: %s after %.2fs" who
              (if timed_out then "Timed_out" else "finished")
              elapsed)
        all_personas)
    [ (Ontgen.Profiles.galen, 0.1, 1.0, true); (Ontgen.Profiles.aeo, 1.0, 2.0, false) ]

let prop_personas_match_quonto =
  QCheck.Test.make ~count:25 ~name:"tableau personas = digraph classification"
    Ontgen.Qgen.arbitrary_tbox (fun axioms ->
      let t = Ontgen.Qgen.tbox_of_axioms axioms in
      let expected = quonto_concept_pairs t in
      List.for_all
        (fun persona ->
          (* a blown per-test tableau budget means "unknown", not wrong:
             skip such cases (they are why Figure 1 has timeout cells) *)
          match Personas.classify ~deadline:30.0 persona t with
          | r -> r.Personas.concept_pairs = expected
          | exception Personas.Timed_out -> true)
        all_personas)

let () =
  Alcotest.run "baselines"
    [
      ( "naive",
        [
          Alcotest.test_case "agreement" `Quick test_naive_agrees_simple;
          Alcotest.test_case "unsat" `Quick test_naive_unsat;
          QCheck_alcotest.to_alcotest prop_naive_matches_quonto;
        ] );
      ( "cb",
        [
          Alcotest.test_case "concept hierarchy" `Quick test_cb_concept_hierarchy;
          Alcotest.test_case "role hierarchy incomplete" `Quick
            test_cb_role_hierarchy_incomplete;
          Alcotest.test_case "Figure-1 profiles = digraph (positive part)" `Quick
            test_cb_figure1_profiles;
          QCheck_alcotest.to_alcotest prop_cb_concepts_match_quonto_positive;
        ] );
      ( "personas",
        [
          Alcotest.test_case "agreement" `Quick test_personas_agree;
          Alcotest.test_case "unsat names" `Quick test_personas_unsat_names;
          Alcotest.test_case "enhanced traversal" `Quick
            test_enhanced_traversal_fewer_tests;
          Alcotest.test_case "timeout" `Slow test_persona_timeout;
          Alcotest.test_case "timeout stops at the deadline" `Slow
            test_persona_timeout_stops;
          QCheck_alcotest.to_alcotest prop_personas_match_quonto;
        ] );
    ]
