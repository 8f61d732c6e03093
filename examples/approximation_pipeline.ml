(* The Section-7 pipeline: an expressive (ALCHI) ontology is
   approximated into DL-Lite both syntactically and semantically, the
   results are compared on speed and on preserved entailments, and the
   semantic approximation is classified with the digraph method —
   exactly the "refinement of axioms for OBDA aims" step of the
   Section-3 workflow.

   Run with:  dune exec examples/approximation_pipeline.exe *)

module O = Owlfrag.Osyntax
open Dllite

(* A designer-authored expressive ontology: the kind of OWL modelling
   (conjunction, disjunction, value restrictions) that must be
   approximated before OBDA can use it. *)
let expressive : O.tbox =
  [
    (* an employee is a person with an employer *)
    O.Equiv
      ( O.Name "Employee",
        O.And (O.Name "Person", O.Some_ (O.Named "worksFor", O.Top)) );
    (* managers head some team, and whatever they head is a team *)
    O.Sub (O.Name "Manager", O.Some_ (O.Named "heads", O.Name "Team"));
    O.Sub (O.Some_ (O.Named "heads", O.Top), O.All (O.Named "heads", O.Name "Team"));
    (* staff are executives or workers; both are employees *)
    O.Sub (O.Name "Staff", O.Or (O.Name "Executive", O.Name "Worker"));
    O.Sub (O.Name "Executive", O.Name "Employee");
    O.Sub (O.Name "Worker", O.Name "Employee");
    (* org structure *)
    O.Role_sub (O.Named "heads", O.Named "worksFor");
    O.Sub (O.Some_ (O.Named "worksFor", O.Top), O.Name "Person");
    O.Sub (O.Some_ (O.Inv "worksFor", O.Top), O.Name "Organization");
    O.Sub (O.Name "Person", O.Not (O.Name "Organization"));
  ]

let time f =
  let t0 = Sys.time () in
  let r = f () in
  (r, Sys.time () -. t0)

let () =
  Format.printf "expressive source: %d ALCHI axioms@.@." (List.length expressive);

  (* 1. syntactic approximation *)
  let syn, syn_time = time (fun () -> Approx.Syntactic.approximate expressive) in
  Format.printf "== syntactic approximation (%.4fs) ==@." syn_time;
  Format.printf "  kept %d DL-Lite axioms, dropped %d residues:@."
    syn.Approx.Syntactic.kept
    (List.length syn.Approx.Syntactic.dropped);
  List.iter
    (fun ax -> Format.printf "    dropped: %a@." O.pp_axiom ax)
    syn.Approx.Syntactic.dropped;
  Format.printf "@.";

  (* 2. semantic approximation, per-axiom (the paper's proposal) *)
  let sem, sem_time =
    time (fun () -> Approx.Semantic.approximate ~mode:Approx.Semantic.Per_axiom expressive)
  in
  Format.printf "== semantic approximation, per-axiom (%.4fs) ==@." sem_time;
  Format.printf "  %d candidates tested, %d axioms entailed@."
    sem.Approx.Semantic.candidates_tested
    (Tbox.axiom_count sem.Approx.Semantic.tbox);
  List.iter
    (fun ax -> Format.printf "    %s@." (Syntax.axiom_to_string ax))
    (Tbox.axioms sem.Approx.Semantic.tbox);
  Format.printf "@.";

  (* 3. what did each lose?  measured against the Global reference *)
  let syn_score =
    Approx.Semantic.entailment_recovery ~source:expressive ~approx:syn.Approx.Syntactic.tbox
  in
  let sem_score =
    Approx.Semantic.entailment_recovery ~source:expressive ~approx:sem.Approx.Semantic.tbox
  in
  Format.printf "entailment recovery vs global semantic reference:@.";
  Format.printf "  syntactic: %.0f%%   semantic (per-axiom): %.0f%%@.@."
    (100. *. syn_score) (100. *. sem_score);

  (* 4. downstream: classify the semantic approximation with the
     digraph method and show a few consequences *)
  let cls = Quonto.Classify.classify sem.Approx.Semantic.tbox in
  Format.printf "== classification of the approximated ontology ==@.";
  List.iter
    (fun (a, b) -> Format.printf "  %s@." Quonto.Classify.(line (Concept_sub (a, b))))
    (Quonto.Classify.concept_hierarchy cls);
  Format.printf "@.";

  (* 5. and use it to answer a query the expressive ontology implies:
     every manager works for something (heads ⊑ worksFor) *)
  let abox =
    Abox.of_list
      (Obda.Qparse.parse_abox
         ~signature:(Tbox.signature sem.Approx.Semantic.tbox)
         {| Manager(mia) |})
  in
  let system = Obda.Engine.of_abox sem.Approx.Semantic.tbox abox in
  let q =
    Obda.Cq.make [ "x" ]
      [ Obda.Cq.atom (Obda.Vabox.role_pred "worksFor") [ Obda.Cq.Var "x"; Obda.Cq.Var "y" ] ]
  in
  Format.printf "who works for something, given only Manager(mia)?@.";
  List.iter
    (fun t -> Format.printf "  -> %s@." (String.concat ", " t))
    (Obda.Engine.certain_answers system q)
