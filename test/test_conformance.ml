(* The differential conformance tiers.

   Tier 1: replay the persisted counterexample corpus (test/corpus/) —
   every case in there was once a disagreement (or is a hand-written
   regression guard); all subjects must agree on all of them now.

   Tier 2: fixed-seed random cases from [Ontgen.Casegen] — the same
   generator the fuzz CLI uses, so any failure here is replayable as
   `fuzz --seed N --count 1`.

   Tier 3: harness self-test — inject a synthetic fault, check that the
   runner notices and that the shrinker reduces the failure to a
   1-minimal counterexample of a handful of axioms.

   Tier 4: the parallel campaign driver — running the same fixed-seed
   campaign across a real 4-domain pool must reproduce the sequential
   driver's failure, shrunk corpus entry and report byte for byte. *)

module Runner = Conformance.Runner
module Subjects = Conformance.Subjects
module Shrink = Conformance.Shrink
module Corpus = Conformance.Corpus
module Drive = Conformance.Drive

let check_agrees case =
  let outcome = Runner.check case in
  match outcome.Runner.disagreements with
  | [] -> ()
  | d :: _ ->
    Alcotest.failf "case %s: %d disagreement(s), first:\n%s" case.Runner.label
      (List.length outcome.Runner.disagreements)
      (Conformance.Diff.to_string d)

(* ------------------------------ corpus ------------------------------ *)

(* cwd is _build/default/test under `dune runtest` (the glob_files dep
   stages the corpus there) but the project root under `dune exec` *)
let corpus_dir =
  if Sys.file_exists "corpus" then "corpus" else Filename.concat "test" "corpus"

let test_corpus_replay () =
  let cases = Corpus.load_dir corpus_dir in
  Alcotest.(check bool) "corpus present" true (List.length cases >= 4);
  List.iter check_agrees cases

let test_corpus_roundtrip () =
  let generated =
    let rng = Ontgen.Rng.create 2024 in
    let tbox = Ontgen.Casegen.tbox rng in
    let abox = Ontgen.Casegen.abox rng in
    (tbox, abox, Ontgen.Casegen.query rng)
  in
  (* an attribute value and a query constant holding a comma *)
  let quoted_comma =
    let tbox =
      match Dllite.Parser.tbox_of_string "concept A\nattr name\nA [= delta(name)" with
      | Ok t -> t
      | Error e -> Alcotest.fail e
    in
    let abox =
      Dllite.Abox.of_list
        [ Dllite.Abox.Concept_assert ("A", "ann");
          Dllite.Abox.Attr_assert ("name", "ann", "Smith, J") ]
    in
    let q =
      Obda.Qparse.parse_query ~signature:(Dllite.Tbox.signature tbox)
        {|x <- A(x), name(x, "Smith, J")|}
    in
    (tbox, abox, q)
  in
  List.iter
    (fun (tbox, abox, q) ->
      let case = { Runner.label = "roundtrip"; tbox; data = Some (abox, q) } in
      let case' = Corpus.of_string ~label:"roundtrip" (Corpus.to_string case) in
      Alcotest.(check bool) "tbox survives" true
        (Dllite.Tbox.equal tbox case'.Runner.tbox);
      match case'.Runner.data with
      | None -> Alcotest.fail "data section lost"
      | Some (abox', q') ->
        Alcotest.(check bool) "abox survives" true
          (Dllite.Abox.assertions abox = Dllite.Abox.assertions abox');
        Alcotest.(check string) "query survives" (Obda.Cq.to_string q)
          (Obda.Cq.to_string q'))
    [ generated; quoted_comma ]

let test_corpus_rejects_malformed () =
  List.iter
    (fun text ->
      match Corpus.of_string ~label:"bad" text with
      | _ -> Alcotest.failf "expected Malformed for %S" text
      | exception Corpus.Malformed _ -> ())
    [
      "A [= B";                                     (* content before [tbox] *)
      "[tbox]\nconcept A\n[abox]\nA(ann)";          (* abox without query *)
      "[tbox]\nconcept A\n[abox]\nMystery(ann)\n[query]\nx <- A(x)";
      "[tbox]\nconcept A\n[query]\nx <- A(x\n";     (* malformed query *)
    ]

(* --------------------------- fixed seeds ---------------------------- *)

let test_random_tboxes () =
  for seed = 1 to 40 do
    let rng = Ontgen.Rng.create seed in
    check_agrees
      { Runner.label = Printf.sprintf "tbox-seed-%d" seed;
        tbox = Ontgen.Casegen.tbox rng;
        data = None }
  done

let test_random_data_cases () =
  for seed = 101 to 120 do
    let rng = Ontgen.Rng.create seed in
    let tbox = Ontgen.Casegen.tbox rng in
    let data = Some (Ontgen.Casegen.abox rng, Ontgen.Casegen.query rng) in
    check_agrees { Runner.label = Printf.sprintf "data-seed-%d" seed; tbox; data }
  done

let test_profile_tier () =
  (* scaled-down Figure-1 shapes, no oracle (the tableau times out on
     exactly these inputs — that is Figure 1's point) *)
  let config = { Runner.default_config with Runner.with_oracle = false } in
  List.iter
    (fun label ->
      match Ontgen.Profiles.by_label label with
      | None -> Alcotest.failf "unknown profile %s" label
      | Some p ->
        for seed = 1 to 3 do
          let case =
            Runner.case
              ~label:(Printf.sprintf "%s-seed-%d" label seed)
              (Ontgen.Casegen.profile_tbox ~seed p)
          in
          let outcome = Runner.check ~config case in
          if outcome.Runner.disagreements <> [] then
            Alcotest.failf "profile case %s disagrees:\n%s" case.Runner.label
              (Conformance.Diff.to_string (List.hd outcome.Runner.disagreements))
        done)
    [ "mouse"; "dolce"; "galen" ]

(* --------------------------- self-test ------------------------------ *)

let injected_config =
  { Runner.default_config with Runner.fault = Subjects.Drop_inverse_role_axioms }

let find_injected_failure () =
  let rec go seed =
    if seed > 100 then Alcotest.fail "no injected failure within 100 seeds"
    else begin
      let rng = Ontgen.Rng.create seed in
      let case =
        Runner.case ~label:(Printf.sprintf "inject-seed-%d" seed)
          (Ontgen.Casegen.tbox rng)
      in
      if (Runner.check ~config:injected_config case).Runner.disagreements <> [] then
        case
      else go (seed + 1)
    end
  in
  go 1

let test_injected_fault_caught_and_shrunk () =
  let case = find_injected_failure () in
  let still_failing c =
    (Runner.check ~config:injected_config c).Runner.disagreements <> []
  in
  let shrunk, stats = Shrink.minimize ~still_failing case in
  Alcotest.(check bool)
    (Printf.sprintf "shrunk to <= 10 axioms (got %d)" stats.Shrink.final_axioms)
    true
    (stats.Shrink.final_axioms <= 10);
  Alcotest.(check bool) "shrunk case still fails" true (still_failing shrunk);
  (* 1-minimality: removing any single remaining axiom cures the case *)
  List.iter
    (fun ax ->
      let tbox' =
        Dllite.Tbox.filter
          (fun a -> not (Dllite.Syntax.equal_axiom a ax))
          shrunk.Runner.tbox
      in
      Alcotest.(check bool)
        ("removing " ^ Dllite.Syntax.axiom_to_string ax ^ " cures the case")
        false
        (still_failing { shrunk with Runner.tbox = tbox' }))
    (Dllite.Tbox.axioms shrunk.Runner.tbox)

let test_healthy_subjects_pass_injection_seeds () =
  (* the same seeds with no fault installed must be clean — guards
     against the self-test passing for the wrong reason *)
  for seed = 1 to 10 do
    let rng = Ontgen.Rng.create seed in
    check_agrees
      { Runner.label = Printf.sprintf "healthy-seed-%d" seed;
        tbox = Ontgen.Casegen.tbox rng;
        data = None }
  done

(* ------------------------- parallel driver -------------------------- *)

(* [Pool.create] (not [global]) so the domains really spawn even on a
   single-core host. *)
let with_pool ~jobs f =
  let pool = Parallel.Pool.create ~jobs () in
  Fun.protect ~finally:(fun () -> Parallel.Pool.shutdown pool) (fun () -> f pool)

let test_parallel_driver_reproduces_failure () =
  let config =
    { Runner.default_config with
      Runner.fault = Subjects.Drop_inverse_role_axioms }
  in
  let spec = { Drive.seed = 1; count = 30; profile = None; config } in
  let seq = Drive.run ~jobs:1 spec in
  let par = with_pool ~jobs:4 (fun pool -> Drive.run ~pool spec) in
  (match (seq.Drive.failure, par.Drive.failure) with
   | Some a, Some b ->
     Alcotest.(check int) "same failing seed" a.Drive.case_seed b.Drive.case_seed;
     Alcotest.(check string) "same shrunk corpus entry"
       (Corpus.to_string a.Drive.shrunk)
       (Corpus.to_string b.Drive.shrunk);
     Alcotest.(check int) "same shrink reruns"
       a.Drive.stats.Shrink.reruns b.Drive.stats.Shrink.reruns
   | None, None -> Alcotest.fail "expected the injected fault to be found"
   | Some _, None -> Alcotest.fail "only the sequential driver found the fault"
   | None, Some _ -> Alcotest.fail "only the parallel driver found the fault");
  Alcotest.(check string) "same report"
    (Conformance.Report.summary seq.Drive.report)
    (Conformance.Report.summary par.Drive.report)

let test_parallel_driver_clean_campaign () =
  let spec =
    { Drive.seed = 1; count = 12; profile = None; config = Runner.default_config }
  in
  let seq = Drive.run ~jobs:1 spec in
  let par = with_pool ~jobs:3 (fun pool -> Drive.run ~pool spec) in
  Alcotest.(check bool) "no sequential failure" true (seq.Drive.failure = None);
  Alcotest.(check bool) "no parallel failure" true (par.Drive.failure = None);
  Alcotest.(check string) "same report"
    (Conformance.Report.summary seq.Drive.report)
    (Conformance.Report.summary par.Drive.report)

let () =
  Alcotest.run "conformance"
    [
      ( "corpus",
        [
          Alcotest.test_case "replay" `Quick test_corpus_replay;
          Alcotest.test_case "roundtrip" `Quick test_corpus_roundtrip;
          Alcotest.test_case "malformed" `Quick test_corpus_rejects_malformed;
        ] );
      ( "fixed-seed",
        [
          Alcotest.test_case "tbox cases" `Quick test_random_tboxes;
          Alcotest.test_case "data cases" `Quick test_random_data_cases;
          Alcotest.test_case "profile cases" `Quick test_profile_tier;
        ] );
      ( "self-test",
        [
          Alcotest.test_case "fault caught and shrunk" `Quick
            test_injected_fault_caught_and_shrunk;
          Alcotest.test_case "healthy seeds clean" `Quick
            test_healthy_subjects_pass_injection_seeds;
        ] );
      ( "parallel-driver",
        [
          Alcotest.test_case "jobs 4 reproduces the jobs 1 failure corpus" `Quick
            test_parallel_driver_reproduces_failure;
          Alcotest.test_case "jobs 3 reproduces a clean campaign" `Quick
            test_parallel_driver_clean_campaign;
        ] );
    ]
