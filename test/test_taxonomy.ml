(* Tests for the reference transitive reduction and taxonomy
   construction. *)

open Dllite
module Graph = Graphlib.Graph
module Closure = Graphlib.Closure
module Classify = Quonto.Classify
module Taxonomy = Quonto.Taxonomy

let parse s =
  match Parser.tbox_of_string s with
  | Ok t -> t
  | Error e -> Alcotest.failf "parse error: %s" e

(* ----------------------------- reduction ----------------------------- *)

let test_reduce_chain () =
  (* 0 -> 1 -> 2 plus the transitive 0 -> 2: reduction drops the long edge *)
  let g = Graph.create ~initial_nodes:3 () in
  Graph.add_edge g 0 1;
  Graph.add_edge g 1 2;
  Graph.add_edge g 0 2;
  let closure = Closure.compute g in
  Alcotest.(check (list (pair int int))) "hasse edges" [ (0, 1); (1, 2) ]
    (List.sort compare (Reduction.reduce_dag closure))

let test_reduce_diamond () =
  let g = Graph.create ~initial_nodes:4 () in
  Graph.add_edge g 0 1;
  Graph.add_edge g 0 2;
  Graph.add_edge g 1 3;
  Graph.add_edge g 2 3;
  Graph.add_edge g 0 3;
  (* redundant *)
  let closure = Closure.compute g in
  Alcotest.(check (list (pair int int))) "diamond"
    [ (0, 1); (0, 2); (1, 3); (2, 3) ]
    (List.sort compare (Reduction.reduce_dag closure))

let test_reduce_with_cycle () =
  (* 0 <-> 1 collapse into one component above 2 *)
  let g = Graph.create ~initial_nodes:3 () in
  Graph.add_edge g 0 1;
  Graph.add_edge g 1 0;
  Graph.add_edge g 1 2;
  let scc, edges = Reduction.reduce g in
  Alcotest.(check int) "two components" 2 scc.Graphlib.Scc.count;
  Alcotest.(check int) "one hasse edge" 1 (List.length edges)

let prop_reduction_preserves_reachability =
  let gen =
    QCheck.Gen.(
      let* n = int_range 1 12 in
      let* edges =
        list_size (int_bound 25) (pair (int_bound (n - 1)) (int_bound (n - 1)))
      in
      return (n, edges))
  in
  let arb =
    QCheck.make
      ~print:(fun (n, es) ->
        Printf.sprintf "n=%d [%s]" n
          (String.concat ";" (List.map (fun (u, v) -> Printf.sprintf "%d>%d" u v) es)))
      gen
  in
  QCheck.Test.make ~count:200 ~name:"transitive reduction preserves reachability" arb
    (fun (n, es) ->
      let g = Graph.create ~initial_nodes:n () in
      List.iter (fun (u, v) -> Graph.add_edge g u v) es;
      let scc, hasse = Reduction.reduce g in
      (* rebuild a graph from the reduced form and compare reachability
         between original nodes *)
      let dag = Graph.create ~initial_nodes:scc.Graphlib.Scc.count () in
      List.iter (fun (u, v) -> Graph.add_edge dag u v) hasse;
      let ok = ref true in
      for u = 0 to n - 1 do
        for v = 0 to n - 1 do
          let original = Graph.reaches g u v in
          let reduced =
            Graph.reaches dag scc.Graphlib.Scc.component.(u)
              scc.Graphlib.Scc.component.(v)
          in
          if original <> reduced then ok := false
        done
      done;
      !ok)

let prop_reduction_minimal =
  let gen =
    QCheck.Gen.(
      let* n = int_range 2 10 in
      let* edges =
        list_size (int_bound 20) (pair (int_bound (n - 1)) (int_bound (n - 1)))
      in
      return (n, edges))
  in
  let arb = QCheck.make ~print:(fun (n, _) -> string_of_int n) gen in
  QCheck.Test.make ~count:100 ~name:"reduction has no redundant edge" arb
    (fun (n, es) ->
      let g = Graph.create ~initial_nodes:n () in
      List.iter (fun (u, v) -> Graph.add_edge g u v) es;
      let scc, hasse = Reduction.reduce g in
      (* dropping any single edge must lose some reachability *)
      List.for_all
        (fun dropped ->
          let dag = Graph.create ~initial_nodes:scc.Graphlib.Scc.count () in
          List.iter
            (fun e -> if e <> dropped then Graph.add_edge dag (fst e) (snd e))
            hasse;
          not (Graph.reaches dag (fst dropped) (snd dropped)))
        hasse)

(* ----------------------------- taxonomy ------------------------------ *)

let company_tbox =
  {|
    Manager [= Employee
    Employee [= Person
    Intern [= Person
    Boss [= Manager
    Manager [= Chief
    Chief [= Manager
  |}

let taxonomy_of s =
  Taxonomy.build (Quonto.Classify.classify (parse s)) Quonto.Classify.Concepts

let test_taxonomy_structure () =
  let t = taxonomy_of company_tbox in
  Alcotest.(check (list string)) "direct supers of Manager" [ "Employee" ]
    (Taxonomy.direct_supers t "Manager");
  Alcotest.(check (list string)) "Manager equiv Chief" [ "Chief" ]
    (Taxonomy.equivalents t "Manager");
  Alcotest.(check (list string)) "children of Manager class" [ "Boss" ]
    (Taxonomy.direct_subs t "Manager");
  (* no transitive edge Person <- Manager *)
  Alcotest.(check (list string)) "direct subs of Person" [ "Employee"; "Intern" ]
    (Taxonomy.direct_subs t "Person")

let test_taxonomy_roots_leaves_depth () =
  let t = taxonomy_of company_tbox in
  let names_of c = (Taxonomy.node t c).Taxonomy.members in
  Alcotest.(check (list (list string))) "roots" [ [ "Person" ] ]
    (List.map names_of (Taxonomy.roots t));
  Alcotest.(check bool) "Boss is a leaf" true
    (List.exists (fun c -> names_of c = [ "Boss" ]) (Taxonomy.leaves t));
  Alcotest.(check int) "depth" 4 (Taxonomy.depth t)

let test_taxonomy_unsat_quarantine () =
  let t = taxonomy_of {|
    Bad [= Good
    Bad [= not Good
    Good [= Thing
  |} in
  Alcotest.(check (list string)) "unsat listed" [ "Bad" ] t.Taxonomy.unsatisfiable;
  Alcotest.(check bool) "Bad not in hierarchy" true (Taxonomy.find t "Bad" = None);
  Alcotest.(check (list string)) "Good placed normally" [ "Thing" ]
    (Taxonomy.direct_supers t "Good")

let test_taxonomy_roles () =
  let t =
    Taxonomy.build
      (Quonto.Classify.classify (parse {|
        role p
        role q
        role r
        p [= q
        q [= r
      |}))
      Quonto.Classify.Roles
  in
  Alcotest.(check (list string)) "direct super of p" [ "q" ]
    (Taxonomy.direct_supers t "p");
  Alcotest.(check (list string)) "direct super of q" [ "r" ]
    (Taxonomy.direct_supers t "q")

(* The reference build: the walk's pairs between satisfiable names in a
   [Graph.t], its Tarjan components, and [Reduction.reduce] over their
   condensation. *)
let reference_build cls sort =
  let unsatisfiable, live =
    List.partition
      (fun a -> Classify.is_unsat cls (Classify.expr_of_name sort a))
      (Classify.names cls sort)
  in
  let live = Array.of_list live in
  let live_index = Hashtbl.create (Array.length live) in
  Array.iteri (fun i a -> Hashtbl.replace live_index a i) live;
  let g = Graph.create ~initial_nodes:(Array.length live) () in
  List.iter
    (fun (a, b) ->
      match Hashtbl.find_opt live_index a, Hashtbl.find_opt live_index b with
      | Some i, Some j -> Graph.add_edge g i j
      | _ -> ())
    (Classify.walk cls sort (fun a b -> (a, b)));
  let scc, direct_edges = Reduction.reduce g in
  let count = scc.Graphlib.Scc.count in
  let parents = Array.make count [] and children = Array.make count [] in
  List.iter
    (fun (sub, super) ->
      parents.(sub) <- super :: parents.(sub);
      children.(super) <- sub :: children.(super))
    direct_edges;
  let nodes =
    Array.init count (fun c ->
        {
          Taxonomy.members =
            List.sort compare (List.map (fun i -> live.(i)) scc.Graphlib.Scc.members.(c));
          parents = List.sort compare parents.(c);
          children = List.sort compare children.(c);
        })
  in
  let index = Hashtbl.create 64 in
  Array.iteri
    (fun c node -> List.iter (fun name -> Hashtbl.replace index name c) node.Taxonomy.members)
    nodes;
  { Taxonomy.nodes; index; unsatisfiable = List.sort compare unsatisfiable }

let sorts = [ Classify.Concepts; Classify.Roles; Classify.Attributes ]

(* node for node: members, parents, children, and the unsatisfiable names *)
let same_as_reference cls sort =
  let t = Taxonomy.build cls sort and r = reference_build cls sort in
  t.Taxonomy.nodes = r.Taxonomy.nodes && t.Taxonomy.unsatisfiable = r.Taxonomy.unsatisfiable

let prop_taxonomy_matches_reference =
  QCheck.Test.make ~count:1000 ~name:"Taxonomy.build = reference build"
    Ontgen.Qgen.arbitrary_tbox (fun axioms ->
      let cls = Classify.classify (Ontgen.Qgen.tbox_of_axioms axioms) in
      List.for_all (same_as_reference cls) sorts)

(* ontology-edit's shape: the university TBox, a Galen module and one
   link from the module into the university hierarchy *)
let test_ontology_edit_matches_reference () =
  let galen =
    Ontgen.Generator.generate ~seed:0x6A1E ~prefix:"g"
      (Ontgen.Generator.scale 0.01 Ontgen.Profiles.galen)
  in
  let link =
    Syntax.Concept_incl (Syntax.Atomic "gC7", Syntax.C_basic (Syntax.Atomic "Person"))
  in
  let tbox = Tbox.add link (Tbox.union Ontgen.Datagen.university_tbox galen) in
  Alcotest.(check bool) "link source in the module" true
    (Signature.mem_concept "gC7" (Tbox.signature galen));
  let cls = Classify.classify tbox in
  List.iter
    (fun sort ->
      Alcotest.(check bool) "same nodes as the reference" true (same_as_reference cls sort))
    sorts

(* a direct super is direct: no parent node lies below another one *)
let prop_taxonomy_parents_minimal =
  QCheck.Test.make ~count:1000 ~name:"no direct super subsumed by another"
    Ontgen.Qgen.arbitrary_tbox (fun axioms ->
      let cls = Classify.classify (Ontgen.Qgen.tbox_of_axioms axioms) in
      List.for_all
        (fun sort ->
          let t = Taxonomy.build cls sort in
          let name c =
            Classify.expr_of_name sort (List.hd (Taxonomy.node t c).Taxonomy.members)
          in
          Array.for_all
            (fun node ->
              List.for_all
                (fun p ->
                  List.for_all
                    (fun q -> p = q || not (Classify.subsumes cls (name p) (name q)))
                    node.Taxonomy.parents)
                node.Taxonomy.parents)
            t.Taxonomy.nodes)
        sorts)

let prop_taxonomy_consistent_with_classification =
  QCheck.Test.make ~count:100 ~name:"taxonomy direct edges imply subsumption"
    Ontgen.Qgen.arbitrary_tbox (fun axioms ->
      let tbox = Ontgen.Qgen.tbox_of_axioms axioms in
      let cls = Quonto.Classify.classify tbox in
      let t = Taxonomy.build cls Quonto.Classify.Concepts in
      let sub a b =
        Quonto.Classify.subsumes cls
          (Syntax.E_concept (Syntax.Atomic a))
          (Syntax.E_concept (Syntax.Atomic b))
      in
      Signature.concepts (Tbox.signature tbox)
      |> List.for_all (fun a ->
             List.for_all (fun b -> sub a b) (Taxonomy.direct_supers t a)
             && List.for_all (fun e -> sub a e && sub e a) (Taxonomy.equivalents t a)))

let prop_taxonomy_covers_classification =
  QCheck.Test.make ~count:100 ~name:"taxonomy paths recover all subsumptions"
    Ontgen.Qgen.arbitrary_tbox (fun axioms ->
      let tbox = Ontgen.Qgen.tbox_of_axioms axioms in
      let cls = Quonto.Classify.classify tbox in
      let t = Taxonomy.build cls Quonto.Classify.Concepts in
      (* walk up the taxonomy from a and collect everything reachable *)
      let rec ancestors seen name =
        List.fold_left
          (fun seen s -> if List.mem s seen then seen else ancestors (s :: seen) s)
          seen
          (Taxonomy.direct_supers t name @ Taxonomy.equivalents t name)
      in
      Signature.concepts (Tbox.signature tbox)
      |> List.for_all (fun a ->
             if Taxonomy.find t a = None then true (* unsat: quarantined *)
             else
               let reachable = ancestors [ a ] a in
               Signature.concepts (Tbox.signature tbox)
               |> List.for_all (fun b ->
                      let subsumed =
                        Quonto.Classify.subsumes cls
                          (Syntax.E_concept (Syntax.Atomic a))
                          (Syntax.E_concept (Syntax.Atomic b))
                      in
                      (not subsumed) || List.mem b reachable
                      || Taxonomy.find t b = None)))

let () =
  Alcotest.run "taxonomy"
    [
      ( "reduction",
        [
          Alcotest.test_case "chain" `Quick test_reduce_chain;
          Alcotest.test_case "diamond" `Quick test_reduce_diamond;
          Alcotest.test_case "cycle collapse" `Quick test_reduce_with_cycle;
          QCheck_alcotest.to_alcotest prop_reduction_preserves_reachability;
          QCheck_alcotest.to_alcotest prop_reduction_minimal;
        ] );
      ( "taxonomy",
        [
          Alcotest.test_case "structure" `Quick test_taxonomy_structure;
          Alcotest.test_case "roots/leaves/depth" `Quick test_taxonomy_roots_leaves_depth;
          Alcotest.test_case "unsat quarantine" `Quick test_taxonomy_unsat_quarantine;
          Alcotest.test_case "role taxonomy" `Quick test_taxonomy_roles;
          QCheck_alcotest.to_alcotest prop_taxonomy_consistent_with_classification;
          QCheck_alcotest.to_alcotest prop_taxonomy_covers_classification;
          QCheck_alcotest.to_alcotest prop_taxonomy_matches_reference;
          Alcotest.test_case "ontology-edit shape = reference" `Quick
            test_ontology_edit_matches_reference;
          QCheck_alcotest.to_alcotest prop_taxonomy_parents_minimal;
        ] );
    ]
