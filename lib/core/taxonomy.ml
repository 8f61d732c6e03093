(** Taxonomies: classification output shaped for consumption — direct
    ("told-or-inferred minimal") subsumers only, equivalence classes
    collapsed, unsatisfiable predicates quarantined.

    This is the structure ontology navigation, the documentation
    generator and the diagram renderer want, and it is how real
    reasoners report classification (a Hasse diagram, not all pairs).

    A taxonomy is read off the classification's own closure rows, once
    per equivalence class ([Classify.classes]): no name graph, second
    closure or separate transitive reduction is built. *)

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
    classification.  Its classes and their strict superclasses come from
    the closure rows ([Classify.classes]); a class's direct parents are
    its strict superclasses minus every class strictly above one of
    them.  Nodes are numbered in the post-order of a walk that starts
    from the classes in ascending order of their first name and enters
    each class's superclasses in descending order of their last name —
    the order Tarjan's algorithm gives on the closed name graph — so a
    super-node always has a smaller id than its sub-nodes. *)
let build cls (sort : Classify.sort) =
  let c = Classify.classes cls sort in
  let count = Array.length c.members in
  let last = Array.map (List.fold_left (fun _ i -> i) (-1)) c.members in
  let id = Array.make count (-1) in
  let next = ref 0 in
  (* the recursion is as deep as the longest superclass chain *)
  let rec visit k =
    id.(k) <- count (* entered, not yet numbered *);
    List.iter
      (fun d -> if id.(d) < 0 then visit d)
      (List.sort (fun d e -> compare last.(e) last.(d)) c.supers.(k));
    id.(k) <- !next;
    incr next
  in
  for k = 0 to count - 1 do
    if id.(k) < 0 then visit k
  done;
  let members = Array.make count [] in
  let supers = Array.make count [] in
  for k = 0 to count - 1 do
    members.(id.(k)) <- List.map (fun i -> c.live.(i)) c.members.(k);
    supers.(id.(k)) <-
      List.sort (fun a b -> compare b a) (List.map (fun d -> id.(d)) c.supers.(k))
  done;
  (* Supers come before their sub-nodes in the numbering, so walking a
     node's supers downwards from the largest id meets each direct one
     before anything above it: a super is direct unless a direct one
     already covered it. *)
  let covered = Array.make count (-1) in
  let parents =
    Array.mapi
      (fun x sups ->
        List.fold_left
          (fun direct d ->
            if covered.(d) = x then direct
            else begin
              List.iter (fun e -> covered.(e) <- x) supers.(d);
              d :: direct
            end)
          [] sups)
      supers
  in
  let children = Array.make count [] in
  for x = count - 1 downto 0 do
    List.iter (fun p -> children.(p) <- x :: children.(p)) parents.(x)
  done;
  let nodes =
    Array.init count (fun x ->
        { members = members.(x); parents = parents.(x); children = children.(x) })
  in
  let index = Hashtbl.create 64 in
  Array.iteri
    (fun x node -> List.iter (fun name -> Hashtbl.replace index name x) node.members)
    nodes;
  { nodes; index; unsatisfiable = c.unsatisfiable }

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
