(** Mutable directed graphs over dense integer node ids.

    Nodes are the integers [0 .. node_count - 1].  Parallel edges are
    collapsed; self-loops are allowed.  The structure maintains both
    successor and predecessor adjacency so that forward and backward
    traversals are equally cheap — the classification algorithms need
    predecessor queries ([computeUnsat]) as much as successor ones. *)

type t = {
  mutable node_count : int;
  mutable succ : int list array;   (* successors, most-recent first *)
  mutable pred : int list array;   (* predecessors, most-recent first *)
  mutable edge_count : int;
  edges : (int * int, unit) Hashtbl.t;  (* membership for dedup / mem query *)
}

(** [create ?initial_nodes ()] is an empty graph with [initial_nodes]
    pre-allocated nodes (default 0). *)
let create ?(initial_nodes = 0) () =
  if initial_nodes < 0 then invalid_arg "Graph.create";
  {
    node_count = initial_nodes;
    succ = Array.make (max initial_nodes 16) [];
    pred = Array.make (max initial_nodes 16) [];
    edge_count = 0;
    edges = Hashtbl.create 64;
  }

let node_count t = t.node_count
let edge_count t = t.edge_count

let ensure_capacity t n =
  let cap = Array.length t.succ in
  if n > cap then begin
    let new_cap = max n (cap * 2) in
    let grow a =
      let b = Array.make new_cap [] in
      Array.blit a 0 b 0 cap;
      b
    in
    t.succ <- grow t.succ;
    t.pred <- grow t.pred
  end

(** [add_node t] allocates and returns a fresh node id. *)
let add_node t =
  let id = t.node_count in
  ensure_capacity t (id + 1);
  t.node_count <- id + 1;
  id

(** [ensure_nodes t n] makes sure node ids [0 .. n-1] exist. *)
let ensure_nodes t n =
  if n > t.node_count then begin
    ensure_capacity t n;
    t.node_count <- n
  end

let check_node t v =
  if v < 0 || v >= t.node_count then invalid_arg "Graph: node out of bounds"

(** [mem_edge t u v] is [true] iff the edge [(u, v)] is present. *)
let mem_edge t u v =
  check_node t u;
  check_node t v;
  Hashtbl.mem t.edges (u, v)

(** [add_edge t u v] inserts the edge [(u, v)]; duplicates are ignored. *)
let add_edge t u v =
  check_node t u;
  check_node t v;
  if not (Hashtbl.mem t.edges (u, v)) then begin
    Hashtbl.add t.edges (u, v) ();
    t.succ.(u) <- v :: t.succ.(u);
    t.pred.(v) <- u :: t.pred.(v);
    t.edge_count <- t.edge_count + 1
  end

(** [successors t v] is the list of direct successors of [v]. *)
let successors t v =
  check_node t v;
  t.succ.(v)

(** [predecessors t v] is the list of direct predecessors of [v]. *)
let predecessors t v =
  check_node t v;
  t.pred.(v)

(** [iter_edges t f] applies [f u v] to every edge. *)
let iter_edges t f =
  for u = 0 to t.node_count - 1 do
    List.iter (fun v -> f u v) t.succ.(u)
  done

(** [edges t] is the list of all edges in unspecified order. *)
let edges t =
  let acc = ref [] in
  iter_edges t (fun u v -> acc := (u, v) :: !acc);
  !acc

(** [copy t] is an independent copy of [t]. *)
let copy t =
  {
    node_count = t.node_count;
    succ = Array.copy t.succ;
    pred = Array.copy t.pred;
    edge_count = t.edge_count;
    edges = Hashtbl.copy t.edges;
  }

(** [transpose t] is a fresh graph with every edge reversed. *)
let transpose t =
  let g = create ~initial_nodes:t.node_count () in
  iter_edges t (fun u v -> add_edge g v u);
  g

(** [reachable_from t v] is the bit-set of nodes reachable from [v] by a
    path of length >= 0, so [v] itself is always included; callers that
    need irreflexive reachability must mask the source out. *)
let reachable_from t v =
  check_node t v;
  let seen = Bitvec.create t.node_count in
  let rec visit u =
    if not (Bitvec.get seen u) then begin
      Bitvec.set seen u;
      List.iter visit t.succ.(u)
    end
  in
  visit v;
  seen

(** [reaches t u v] is [true] iff there is a (possibly empty) path from
    [u] to [v]. *)
let reaches t u v =
  check_node t u;
  check_node t v;
  u = v
  ||
  let seen = Bitvec.create t.node_count in
  let stack = Stack.create () in
  Stack.push u stack;
  Bitvec.set seen u;
  let found = ref false in
  while (not !found) && not (Stack.is_empty stack) do
    let x = Stack.pop stack in
    List.iter
      (fun y ->
        if y = v then found := true
        else if not (Bitvec.get seen y) then begin
          Bitvec.set seen y;
          Stack.push y stack
        end)
      t.succ.(x)
  done;
  !found

(** [ancestors t v] is the bit-set of nodes from which [v] is reachable,
    including [v] itself (reflexive predecessors). *)
let ancestors t v =
  check_node t v;
  let seen = Bitvec.create t.node_count in
  let rec visit u =
    if not (Bitvec.get seen u) then begin
      Bitvec.set seen u;
      List.iter visit t.pred.(u)
    end
  in
  visit v;
  seen

(** [topological_order t] is a list of all nodes such that every edge goes
    from an earlier to a later node, when the graph is acyclic; raises
    [Failure] on a cyclic graph.  Use [Scc] for the cyclic case. *)
let topological_order t =
  let n = t.node_count in
  let indegree = Array.make n 0 in
  iter_edges t (fun _ v -> indegree.(v) <- indegree.(v) + 1);
  let queue = Queue.create () in
  for v = 0 to n - 1 do
    if indegree.(v) = 0 then Queue.add v queue
  done;
  let order = ref [] in
  let emitted = ref 0 in
  while not (Queue.is_empty queue) do
    let u = Queue.pop queue in
    order := u :: !order;
    incr emitted;
    List.iter
      (fun v ->
        indegree.(v) <- indegree.(v) - 1;
        if indegree.(v) = 0 then Queue.add v queue)
      t.succ.(u)
  done;
  if !emitted <> n then failwith "Graph.topological_order: graph is cyclic";
  List.rev !order
