(* Quickstart: parse a small DL-Lite ontology, classify it with the
   digraph method, check a few logical implications, and answer a query
   over a toy ABox.

   Run with:  dune exec examples/quickstart.exe *)

open Dllite

let ontology_source =
  {|
    # A small company ontology in the ASCII DL-Lite syntax.
    role worksFor
    role manages
    attr salary

    Manager [= Employee
    Employee [= Person
    Employee [= exists worksFor
    exists worksFor [= Employee
    exists worksFor^- [= Organization
    manages [= worksFor
    Manager [= exists manages
    delta(salary) [= Employee
    Organization [= not Person
  |}

let () =
  let tbox = Parser.tbox_of_string_exn ontology_source in
  Format.printf "Parsed %d axioms over %d concepts / %d roles / %d attributes@.@."
    (Tbox.axiom_count tbox)
    (Signature.concept_count (Tbox.signature tbox))
    (Signature.role_count (Tbox.signature tbox))
    (Signature.attribute_count (Tbox.signature tbox));

  (* 1. classification: the paper's graph-based method *)
  let cls = Quonto.Classify.classify tbox in
  Format.printf "== Classification (Phi_T + Omega_T) ==@.";
  List.iter
    (fun sub -> Format.printf "  %s@." (Quonto.Classify.line sub))
    (Quonto.Classify.name_level cls);
  Format.printf "  coherent: %b@.@." (Quonto.Unsat.coherent (Quonto.Classify.unsat cls));

  (* 2. logical implication, both engines *)
  let deductive = Quonto.Deductive.of_classification cls in
  let on_demand = Quonto.Implication.prepare tbox in
  let queries =
    [
      "Manager [= exists worksFor";
      "Manager [= exists worksFor . Organization";
      "exists manages [= Employee";
      "Manager [= not Organization";
      "Person [= Employee";
    ]
  in
  Format.printf "== Logical implication ==@.";
  List.iter
    (fun source ->
      (* parse each query axiom through a tiny TBox document *)
      let query_tbox =
        Parser.tbox_of_string_exn ("role worksFor\nrole manages\n" ^ source)
      in
      match Tbox.axioms query_tbox with
      | [ ax ] ->
        Format.printf "  %-45s closure:%b on-demand:%b@." source
          (Quonto.Deductive.entails deductive ax)
          (Quonto.Implication.entails on_demand ax)
      | _ -> assert false)
    queries;
  Format.printf "@.";

  (* 3. query answering over a materialized ABox *)
  let abox =
    Abox.of_list
      (Obda.Qparse.parse_abox ~signature:(Tbox.signature tbox)
         {|
           Manager(alice)
           worksFor(bob, acme)
           salary(carol, high)
         |})
  in
  let system = Obda.Engine.of_abox tbox abox in
  let v x = Obda.Cq.Var x in
  let employees =
    Obda.Cq.make [ "x" ] [ Obda.Cq.atom (Obda.Vabox.concept_pred "Employee") [ v "x" ] ]
  in
  Format.printf "== Certain answers: Employee(x) ==@.";
  List.iter
    (fun tuple -> Format.printf "  %s@." (String.concat ", " tuple))
    (List.sort compare (Obda.Engine.certain_answers system employees));
  Format.printf "  (alice via Manager, bob via worksFor, carol via salary)@.";
  Format.printf "@.consistent: %b@." (Obda.Engine.consistent system)
