(* The Section-3 methodology, end to end: "a workflow that guides the
   ontology engineer through the process of ontology design,
   visualization, and formalization".

   (i)    design with patterns + the graphical language;
   (ii)   translate the diagram into logical axioms;
   (iii)  refine for OBDA (here: constraints + OWL 2 QL interchange);
   (iv)   intensional reasoning as design-quality control;
   then evolve the design and review the change with the logical diff,
   regenerate the documentation, and export for standard OWL tooling.

   Run with:  dune exec examples/design_workflow.exe *)

open Dllite

let () =
  (* (i) design: instantiate recurring patterns (Section 8) *)
  let base =
    List.fold_left Patterns.apply Tbox.empty
      [
        Patterns.part_whole ~part:"County" ~whole:"State" ();
        Patterns.partition ~parent:"Region" ~cases:[ "County"; "State" ] ();
        Patterns.temporal_snapshot ~entity:"County" ();
      ]
  in
  (* every pattern promises consequences; check them *)
  List.iter
    (fun i ->
      match Patterns.verify i with
      | [] -> Format.printf "pattern %-40s OK@." i.Patterns.pattern
      | broken ->
        Format.printf "pattern %-40s BROKEN (%d promises)@." i.Patterns.pattern
          (List.length broken))
    [
      Patterns.part_whole ~part:"County" ~whole:"State" ();
      Patterns.partition ~parent:"Region" ~cases:[ "County"; "State" ] ();
      Patterns.temporal_snapshot ~entity:"County" ();
    ];
  Format.printf "@.";

  (* hand-written refinements on top of the patterns *)
  let design =
    Tbox.union base
      (Parser.tbox_of_string_exn
         {|
           role isPartOf
           County [= Region
           State [= Region
           attr population
           delta(population) [= Region
         |})
  in

  (* (ii) the design as a diagram (and back, losslessly) *)
  let diagram = Graphical.Translate.of_tbox design in
  Graphical.Diagram.validate diagram;
  let elements, scopes, inclusions = Graphical.Diagram.stats diagram in
  Format.printf "diagram: %d elements, %d scopes, %d inclusion edges@." elements
    scopes inclusions;
  let recovered = Graphical.Translate.to_tbox diagram in
  Format.printf "diagram -> axioms recovers the design: %b@.@."
    (List.for_all (fun ax -> Tbox.mem ax recovered) (Tbox.axioms design));

  (* (iv) design-quality control: classification, coherence, taxonomy *)
  let cls = Quonto.Classify.classify design in
  Format.printf "coherent: %b@." (Quonto.Unsat.coherent (Quonto.Classify.unsat cls));
  let taxonomy = Quonto.Taxonomy.build cls Quonto.Classify.Concepts in
  Format.printf "taxonomy (depth %d):@.%a@." (Quonto.Taxonomy.depth taxonomy)
    (fun fmt t -> Quonto.Taxonomy.pp fmt t)
    taxonomy;

  (* evolve: a later edit accidentally merges County into State *)
  let evolved =
    Tbox.add
      (Syntax.Concept_incl (Syntax.Atomic "County", Syntax.C_basic (Syntax.Atomic "State")))
      design
  in
  let report = Evolution.diff ~prev:design ~next:evolved in
  Format.printf "review of the edit:@.%a" Evolution.pp report;
  Format.printf "conservative: %b  (County is now unsatisfiable: the partition \
                 made County and State disjoint)@.@."
    (Evolution.is_conservative report);

  (* documentation regenerates from the (original) design *)
  let doc =
    Docgen.generate
      ~annotations:
        [
          ("County", "An administrative subdivision of a State.");
          ("isPartOf", "Transitive-intent part-whole link (Figure 2 pattern).");
        ]
      ~title:"Territory ontology" design
  in
  let markdown = Docgen.to_markdown doc in
  Format.printf "documentation: %d bytes of Markdown, %d bytes of HTML@."
    (String.length markdown)
    (String.length (Docgen.to_html doc));

  (* interchange: standard OWL tooling reads the same design *)
  let owl = Owl2ql.to_functional ~iri:"http://example.org/territory" design in
  let back = Owl2ql.of_functional owl in
  Format.printf "OWL 2 QL export: %d bytes; reimport equal: %b@."
    (String.length owl) (Tbox.equal design back)
