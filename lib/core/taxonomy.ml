(** Taxonomies: classification output shaped for consumption — direct
    ("told-or-inferred minimal") subsumers only, equivalence classes
    collapsed, unsatisfiable predicates quarantined.

    This is the structure ontology navigation, the documentation
    generator and the diagram renderer want, and it is how real
    reasoners report classification (a Hasse diagram, not all pairs).

    A taxonomy is built from the classification's name-level pairs, read
    by the same per-sort walk ([Classify.walk]) that produces [CLASSIFY]
    output, then transitively reduced over the SCC condensation. *)

(** One taxonomy node: an equivalence class of names. *)
type node = {
  members : string list;       (** mutually equivalent names, sorted *)
  parents : int list;          (** indices of direct super-nodes *)
  children : int list;         (** indices of direct sub-nodes *)
}

type t = {
  nodes : node array;
  index : (string, int) Hashtbl.t;  (** name -> node id *)
  unsatisfiable : string list;      (** names equivalent to ⊥, kept apart *)
}

(** [build cls sort] — the taxonomy of the given name sort from a
    classification.  Its edges are the classification's own name pairs
    ([Classify.walk]); unsatisfiable names are set apart first, and
    since [computeUnsat] is closed under digraph predecessors no
    satisfiable name reaches one. *)
let build cls (sort : Classify.sort) =
  let unsatisfiable, live =
    List.partition
      (fun a -> Classify.is_unsat cls (Classify.expr_of_name sort a))
      (Classify.names cls sort)
  in
  let live = Array.of_list live in
  let live_index = Hashtbl.create (Array.length live) in
  Array.iteri (fun i a -> Hashtbl.replace live_index a i) live;
  (* subsumption graph over satisfiable names *)
  let g = Graphlib.Graph.create ~initial_nodes:(Array.length live) () in
  List.iter
    (fun (a, b) ->
      match Hashtbl.find_opt live_index a, Hashtbl.find_opt live_index b with
      | Some i, Some j -> Graphlib.Graph.add_edge g i j
      | _ -> ())
    (Classify.walk cls sort (fun a b -> (a, b)));
  let scc, direct_edges = Graphlib.Reduction.reduce g in
  let node_count = scc.Graphlib.Scc.count in
  let members =
    Array.map
      (fun ms -> List.sort compare (List.map (fun i -> live.(i)) ms))
      scc.Graphlib.Scc.members
  in
  let parents = Array.make node_count [] in
  let children = Array.make node_count [] in
  List.iter
    (fun (c_sub, c_super) ->
      parents.(c_sub) <- c_super :: parents.(c_sub);
      children.(c_super) <- c_sub :: children.(c_super))
    direct_edges;
  let nodes =
    Array.init node_count (fun c ->
        {
          members = members.(c);
          parents = List.sort compare parents.(c);
          children = List.sort compare children.(c);
        })
  in
  let index = Hashtbl.create 64 in
  Array.iteri
    (fun c node -> List.iter (fun name -> Hashtbl.replace index name c) node.members)
    nodes;
  { nodes; index; unsatisfiable = List.sort compare unsatisfiable }

let node_count t = Array.length t.nodes
let node t c = t.nodes.(c)

(** [find t name] is the node id of [name], if satisfiable and known. *)
let find t name = Hashtbl.find_opt t.index name

(** [roots t] — nodes with no parents (the most general classes). *)
let roots t =
  let acc = ref [] in
  Array.iteri (fun c node -> if node.parents = [] then acc := c :: !acc) t.nodes;
  List.rev !acc

(** [leaves t] — nodes with no children. *)
let leaves t =
  let acc = ref [] in
  Array.iteri (fun c node -> if node.children = [] then acc := c :: !acc) t.nodes;
  List.rev !acc

(** [direct_supers t name] — the names of the direct super-classes
    ([[]] for unknown or unsatisfiable names). *)
let direct_supers t name =
  match find t name with
  | None -> []
  | Some c ->
    List.concat_map (fun p -> t.nodes.(p).members) t.nodes.(c).parents
    |> List.sort compare

(** [direct_subs t name] — the names of the direct sub-classes. *)
let direct_subs t name =
  match find t name with
  | None -> []
  | Some c ->
    List.concat_map (fun ch -> t.nodes.(ch).members) t.nodes.(c).children
    |> List.sort compare

(** [equivalents t name] — the other members of [name]'s class. *)
let equivalents t name =
  match find t name with
  | None -> []
  | Some c -> List.filter (fun m -> m <> name) t.nodes.(c).members

(** [depth t] — length of the longest root-to-leaf chain (0 for an
    empty taxonomy). *)
let depth t =
  let n = node_count t in
  let memo = Array.make n (-1) in
  let rec go c =
    if memo.(c) >= 0 then memo.(c)
    else begin
      let d =
        match t.nodes.(c).children with
        | [] -> 1
        | cs -> 1 + List.fold_left (fun m ch -> max m (go ch)) 0 cs
      in
      memo.(c) <- d;
      d
    end
  in
  List.fold_left (fun m r -> max m (go r)) 0 (roots t)

(** [pp fmt t] — indented tree rendering (nodes under their first
    parent only, so shared subtrees print once). *)
let pp fmt t =
  let printed = Hashtbl.create 16 in
  let rec go indent c =
    let node = t.nodes.(c) in
    Format.fprintf fmt "%s%s@." indent (String.concat " = " node.members);
    if not (Hashtbl.mem printed c) then begin
      Hashtbl.replace printed c ();
      List.iter (go (indent ^ "  ")) node.children
    end
  in
  List.iter (go "") (roots t);
  if t.unsatisfiable <> [] then
    Format.fprintf fmt "unsatisfiable: %s@." (String.concat ", " t.unsatisfiable)
