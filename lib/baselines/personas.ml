(** Simulated tableau-based reasoners (the FaCT++, HermiT and Pellet
    columns of Figure 1).

    All three share the ALCHI tableau engine; what distinguishes real
    tableau reasoners on classification workloads is the *harness
    around* the satisfiability oracle, so the personas differ on those
    documented axes:

    - taxonomy traversal: brute-force pairwise tests vs enhanced
      traversal (top-search insertion into the growing taxonomy);
    - told-subsumer seeding: skip tests that follow syntactically;
    - satisfiability pre-check caching: unsatisfiable names are detected
      once and never re-tested.

    Classification is by tableau subsumption tests either way — which is
    precisely why these engines degrade super-linearly on large OWL 2 QL
    ontologies while the digraph method does not.  A wall-clock deadline
    reproduces the paper's timeout cells. *)

open Dllite

exception Timed_out

type traversal =
  | Brute_force          (** test every ordered pair of concept names *)
  | Enhanced_traversal   (** insert names into the taxonomy top-down *)

type persona = {
  name : string;
  traversal : traversal;
  told_subsumers : bool;
  cache_unsat : bool;
  model_cache : bool;
      (** pseudo-model caching: on deterministic (Horn-shaped) inputs,
          one completion per concept name answers all its subsumption
          questions from the cached root label — the optimization that
          lets real tableau reasoners finish mid-size QL ontologies *)
  tableau_budget : int;  (** per-test rule-application budget *)
}

(** The three Figure-1 tableau personas. *)
let pellet =
  {
    name = "Pellet";
    traversal = Brute_force;
    told_subsumers = true;
    cache_unsat = true;
    model_cache = false;
    tableau_budget = 500_000;
  }

let fact_plus_plus =
  {
    name = "FaCT++";
    traversal = Enhanced_traversal;
    told_subsumers = true;
    cache_unsat = true;
    model_cache = true;  (* FaCT++'s completely-defined/pseudo-model tricks *)
    tableau_budget = 500_000;
  }

let hermit =
  {
    name = "HermiT";
    traversal = Enhanced_traversal;
    told_subsumers = false;  (* pays more tests, branches less elsewhere *)
    cache_unsat = true;
    model_cache = false;
    tableau_budget = 500_000;
  }

type result = {
  concept_pairs : (string * string) list;  (* name-level, irreflexive *)
  role_pairs : (string * string) list;
  unsat_names : string list;
  subsumption_tests : int;  (* tableau invocations actually performed *)
}

(* told (syntactic) subsumers of each concept name: reflexive-transitive
   closure of A ⊑ B axioms between names only *)
let told_subsumer_map tbox =
  let direct = Hashtbl.create 64 in
  List.iter
    (function
      | Syntax.Concept_incl (Syntax.Atomic a, Syntax.C_basic (Syntax.Atomic b)) ->
        let prev = Option.value ~default:[] (Hashtbl.find_opt direct a) in
        Hashtbl.replace direct a (b :: prev)
      | _ -> ())
    (Tbox.axioms tbox);
  let closure = Hashtbl.create 64 in
  let rec supers_of a =
    match Hashtbl.find_opt closure a with
    | Some s -> s
    | None ->
      (* break cycles: publish the reflexive seed before recursing *)
      Hashtbl.replace closure a [ a ];
      let ds = Option.value ~default:[] (Hashtbl.find_opt direct a) in
      let all =
        List.sort_uniq compare (a :: List.concat_map (fun b -> b :: supers_of b) ds)
      in
      Hashtbl.replace closure a all;
      all
  in
  fun a -> supers_of a

(** [classify ?deadline persona tbox] classifies [tbox] with the given
    persona.  @raise Timed_out when [deadline] (seconds of wall clock)
    is exceeded — the harness renders this as a Figure-1 "timeout" cell;
    a blown per-test budget is treated the same way. *)
let classify ?deadline persona tbox =
  let started = Unix.gettimeofday () in
  (* the deadline is also polled *inside* each tableau run: a single
     hard satisfiability test must not overshoot the wall-clock limit *)
  let expired () =
    match deadline with
    | Some d -> Unix.gettimeofday () -. started > d
    | None -> false
  in
  let check_deadline () = if expired () then raise Timed_out in
  let cfg = Owlfrag.Tableau.compile (Owlfrag.Embed.tbox tbox) in
  let tests = ref 0 in
  let budget = persona.tableau_budget in
  (* one tableau run: a blown budget or deadline is a timeout cell *)
  let tableau run =
    check_deadline ();
    incr tests;
    try run () with Owlfrag.Tableau.Budget_exhausted -> raise Timed_out
  in
  let tableau_subsumes c d =
    tableau (fun () -> Owlfrag.Tableau.subsumes ~budget ~deadline:expired cfg c d)
  in
  let signature = Tbox.signature tbox in
  let names = Signature.concepts signature in
  let told = told_subsumer_map tbox in
  (* 0. pseudo-model cache: on deterministic inputs, one completion per
     name answers every later subsumption question about it *)
  let model_cache =
    if persona.model_cache && Owlfrag.Tableau.is_deterministic cfg then begin
      let table = Hashtbl.create 64 in
      List.iter
        (fun a ->
          Hashtbl.replace table a
            (tableau (fun () ->
                 Owlfrag.Tableau.root_completion ~budget ~deadline:expired cfg
                   (Owlfrag.Osyntax.Name a))))
        names;
      Some table
    end
    else None
  in
  (* 1. satisfiability pre-check (find unsatisfiable names) *)
  let unsat_names =
    match model_cache with
    | Some table ->
      List.filter (fun a -> Hashtbl.find_opt table a = Some None) names
    | None ->
      if persona.cache_unsat then
        List.filter
          (fun a -> tableau_subsumes (Owlfrag.Osyntax.Name a) Owlfrag.Osyntax.Bot)
          names
      else []
  in
  let unsat = Hashtbl.of_seq (List.to_seq (List.map (fun a -> (a, ())) unsat_names)) in
  let is_unsat = Hashtbl.mem unsat in
  let subsumes_names a b =
    if a = b then true
    else if is_unsat a then true
    else if persona.told_subsumers && List.mem b (told a) then true
    else
      match Option.bind model_cache (fun table -> Hashtbl.find_opt table a) with
      | Some (Some label) ->
        List.exists (function Owlfrag.Osyntax.Name b' -> b' = b | _ -> false) label
      | Some None -> true (* unsatisfiable name *)
      | None -> tableau_subsumes (Owlfrag.Osyntax.Name a) (Owlfrag.Osyntax.Name b)
  in
  let concept_pairs =
    match persona.traversal with
    | Brute_force ->
      List.concat_map
        (fun a ->
          check_deadline (); (* unsat and told rows run no tableau test *)
          List.filter_map
            (fun b -> if a <> b && subsumes_names a b then Some (a, b) else None)
            names)
        names
    | Enhanced_traversal ->
      (* Insert names one at a time.  Top search walks the taxonomy from
         the roots, descending only below subsumers (the subsumer set is
         upward-closed along taxonomy edges, so pruning is complete);
         bottom search finds the already-inserted subsumees of [a] — a
         node known to be subsumed needs no tests for its descendants.
         Both phases skip entire subtrees, which is the point of the
         optimization. *)
      let supers = Hashtbl.create 64 in (* name -> complete subsumer set *)
      let children = Hashtbl.create 64 in (* taxonomy search edges *)
      let roots = ref [] in
      let kids b = Option.value ~default:[] (Hashtbl.find_opt children b) in
      let add_super x b =
        let prev = Option.value ~default:[] (Hashtbl.find_opt supers x) in
        if not (List.mem b prev) then Hashtbl.replace supers x (b :: prev)
      in
      let insert a =
        (* top search: all subsumers of [a] among inserted names *)
        let found = Hashtbl.create 16 in
        let rec visit_up b =
          check_deadline ();
          if (not (Hashtbl.mem found b)) && subsumes_names a b then begin
            Hashtbl.replace found b ();
            List.iter visit_up (kids b)
          end
        in
        List.iter visit_up !roots;
        let subsumers = Hashtbl.fold (fun b () acc -> b :: acc) found [] in
        Hashtbl.replace supers a subsumers;
        (* bottom search: subsumees of [a]; once a node tests positive,
           all its taxonomy descendants follow for free *)
        let below = Hashtbl.create 16 in
        let rec mark d =
          if not (Hashtbl.mem below d) then begin
            Hashtbl.replace below d ();
            List.iter mark (kids d)
          end
        in
        let seen = Hashtbl.create 16 in
        let rec visit_down b =
          if not (Hashtbl.mem seen b) then begin
            Hashtbl.replace seen b ();
            check_deadline ();
            if subsumes_names b a then mark b else List.iter visit_down (kids b)
          end
        in
        List.iter visit_down !roots;
        Hashtbl.iter (fun x () -> add_super x a) below;
        (* link [a] under its most specific subsumers (or as a root) *)
        let most_specific =
          List.filter
            (fun b ->
              not
                (List.exists
                   (fun c ->
                     c <> b
                     && List.mem b (Option.value ~default:[] (Hashtbl.find_opt supers c)))
                   subsumers))
            subsumers
        in
        if most_specific = [] then roots := a :: !roots
        else
          List.iter
            (fun b -> Hashtbl.replace children b (a :: kids b))
            most_specific
      in
      List.iter insert names;
      List.concat_map
        (fun a ->
          if is_unsat a then
            List.filter_map (fun b -> if b <> a then Some (a, b) else None) names
          else
            List.filter_map
              (fun b -> if b <> a then Some (a, b) else None)
              (Option.value ~default:[] (Hashtbl.find_opt supers a)))
        names
  in
  (* 2. property hierarchy: tableau reasoners compute it from the told
     role axioms' reflexive-transitive closure (cheap either way) *)
  let hierarchy = Owlfrag.Hierarchy.build (Owlfrag.Embed.tbox tbox) in
  let role_names = Signature.roles signature in
  let role_pairs =
    List.concat_map
      (fun p ->
        List.filter_map
          (fun q ->
            if
              p <> q
              && Owlfrag.Hierarchy.subsumes hierarchy (Owlfrag.Osyntax.Named p)
                   (Owlfrag.Osyntax.Named q)
            then Some (p, q)
            else None)
          role_names)
      role_names
  in
  let concept_pairs = List.sort_uniq compare concept_pairs in
  check_deadline (); (* finishing past the deadline is a timeout too *)
  {
    concept_pairs;
    role_pairs = List.sort compare role_pairs;
    unsat_names;
    subsumption_tests = !tests;
  }
