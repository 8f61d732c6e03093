(** Transitive closure of directed graphs.

    Materializing algorithms — the [algorithm] cases below — compute the
    same relation (checked extensionally by property tests) but have
    very different cost profiles, which the ablation benches [A1] and
    [A8] measure:

    - [Dfs]: one DFS per node, O(V * E).  Simple, good on sparse graphs.
    - [Warshall]: bit-parallel Warshall, O(V^3 / word).  Good on small
      dense graphs, hopeless at FMA scale.
    - [Scc_condense]: Tarjan condensation, then one bottom-up pass over
      the DAG unioning descendant bit-sets.  The default: ontology
      hierarchies are mostly DAGs with a few equivalence cycles, where
      this is the fastest by a wide margin.
    - [Par_scc]: [Scc_condense] with the component-row expansion
      level-scheduled across a domain pool (the Tarjan pass itself stays
      sequential) and the node-row copy-out parallelized.

    The parallel variant produces bit-for-bit the same closure as
    [Scc_condense] for every job count — each row is a pure function of
    the input graph and lands in its own slot; see [Parallel.Pool] for
    the determinism contract.  With one job (or on a single-core host,
    via [Parallel.Pool.global]) it degrades to the sequential
    algorithm.

    Separately from the materializing algorithms, the [On_demand]
    *module* (not an [algorithm] case — it has a different type, carrying
    a cache instead of a row matrix) does no precomputation at all and
    memoizes one per-source DFS row per distinct source queried, for
    workloads that only ask a few reachability questions.

    Closures are *reflexive*: every node reaches itself.  This matches
    the logical reading ([T |= S ⊑ S] always holds) and makes the
    predecessor sets of [computeUnsat] directly usable. *)

type algorithm = Dfs | Warshall | Scc_condense | Par_scc

let string_of_algorithm = function
  | Dfs -> "dfs"
  | Warshall -> "warshall"
  | Scc_condense -> "scc"
  | Par_scc -> "par-scc"

let algorithm_of_string = function
  | "dfs" -> Some Dfs
  | "warshall" -> Some Warshall
  | "scc" -> Some Scc_condense
  | "par-scc" -> Some Par_scc
  | _ -> None

(** Materialized closure: [rows.(v)] is the reflexive descendant set of
    node [v]. *)
type t = {
  size : int;
  rows : Bitvec.t array;
}

let size t = t.size

(** [reaches t u v] is [true] iff [v] is a (reflexive) descendant of [u]. *)
let reaches t u v =
  if u < 0 || u >= t.size || v < 0 || v >= t.size then
    invalid_arg "Closure.reaches";
  Bitvec.get t.rows.(u) v

(** [descendants t v] is the reflexive descendant set of [v]. *)
let descendants t v =
  if v < 0 || v >= t.size then invalid_arg "Closure.descendants";
  t.rows.(v)

(** [ancestors t v] is the freshly computed reflexive ancestor set of [v]
    (the column of the closure matrix). *)
let ancestors t v =
  if v < 0 || v >= t.size then invalid_arg "Closure.ancestors";
  let col = Bitvec.create t.size in
  for u = 0 to t.size - 1 do
    if Bitvec.get t.rows.(u) v then Bitvec.set col u
  done;
  col

let dfs_closure g =
  let n = Graph.node_count g in
  let rows = Array.init n (fun v -> Graph.reachable_from g v) in
  { size = n; rows }

let warshall_closure g =
  let n = Graph.node_count g in
  let rows = Array.init n (fun _ -> Bitvec.create n) in
  for v = 0 to n - 1 do
    Bitvec.set rows.(v) v;
    List.iter (fun w -> Bitvec.set rows.(v) w) (Graph.successors g v)
  done;
  (* rows.(i) |= rows.(k) whenever i reaches k *)
  for k = 0 to n - 1 do
    for i = 0 to n - 1 do
      if i <> k && Bitvec.get rows.(i) k then
        ignore (Bitvec.union_into ~src:rows.(k) ~dst:rows.(i))
    done
  done;
  { size = n; rows }

let scc_closure g =
  let n = Graph.node_count g in
  let r = Scc.tarjan g in
  let dag = Scc.condensation g r in
  (* Tarjan ids are in reverse topological order: successors of a
     component always have *smaller* ids, so a single ascending pass
     sees every successor's row fully computed. *)
  let comp_rows = Array.init r.Scc.count (fun _ -> Bitvec.create r.Scc.count) in
  for c = 0 to r.Scc.count - 1 do
    Bitvec.set comp_rows.(c) c;
    List.iter
      (fun c' -> ignore (Bitvec.union_into ~src:comp_rows.(c') ~dst:comp_rows.(c)))
      (Graph.successors dag c)
  done;
  (* Expand component reachability back to node granularity. *)
  let comp_node_rows =
    Array.init r.Scc.count (fun c ->
        let row = Bitvec.create n in
        Bitvec.iter_set comp_rows.(c) (fun c' ->
            List.iter (fun v -> Bitvec.set row v) r.Scc.members.(c'));
        row)
  in
  let rows =
    Array.init n (fun v -> Bitvec.copy comp_node_rows.(r.Scc.component.(v)))
  in
  { size = n; rows }

let par_scc_closure pool g =
  let n = Graph.node_count g in
  let r = Scc.tarjan g in
  let dag = Scc.condensation g r in
  let nc = r.Scc.count in
  (* The sequential bottom-up pass is an exact dependency chain on the
     reverse-topological ids; the parallel version recovers independence
     by level scheduling: [level.(c)] is the longest path from [c] to a
     sink, so every successor of [c] sits at a strictly lower level and
     its row is complete before level [level.(c)] starts.  Within a
     level no two components touch the same row. *)
  let level = Array.make nc 0 in
  let max_level = ref 0 in
  for c = 0 to nc - 1 do
    List.iter
      (fun c' -> if level.(c') + 1 > level.(c) then level.(c) <- level.(c') + 1)
      (Graph.successors dag c);
    if level.(c) > !max_level then max_level := level.(c)
  done;
  let buckets = Array.make (!max_level + 1) [] in
  for c = nc - 1 downto 0 do
    buckets.(level.(c)) <- c :: buckets.(level.(c))
  done;
  let comp_rows = Array.init nc (fun _ -> Bitvec.create nc) in
  Array.iter
    (fun bucket ->
      let bucket = Array.of_list bucket in
      Parallel.Pool.parallel_for pool ~n:(Array.length bucket) (fun i ->
          let c = bucket.(i) in
          Bitvec.set comp_rows.(c) c;
          List.iter
            (fun c' ->
              ignore (Bitvec.union_into ~src:comp_rows.(c') ~dst:comp_rows.(c)))
            (Graph.successors dag c)))
    buckets;
  (* Expand component reachability back to node granularity, one task
     per component, then copy rows out, one task per node. *)
  let comp_node_rows = Array.make nc (Bitvec.create 0) in
  Parallel.Pool.parallel_for pool ~n:nc (fun c ->
      let row = Bitvec.create n in
      Bitvec.iter_set comp_rows.(c) (fun c' ->
          List.iter (fun v -> Bitvec.set row v) r.Scc.members.(c'));
      comp_node_rows.(c) <- row);
  let rows = Array.make n (Bitvec.create 0) in
  Parallel.Pool.parallel_for pool ~n (fun v ->
      rows.(v) <- Bitvec.copy comp_node_rows.(r.Scc.component.(v)));
  { size = n; rows }

(** [compute ?algorithm ?pool ?jobs g] materializes the reflexive
    transitive closure of [g].  Default algorithm: [Scc_condense].
    [Par_scc] runs on [pool] when given, otherwise on the shared
    [Parallel.Pool.global ?jobs ()] (which is sequential when
    [jobs <= 1] or the host has one core); [pool]/[jobs] are ignored by
    the sequential algorithms. *)
let compute ?(algorithm = Scc_condense) ?pool ?jobs g =
  let pool () =
    match pool with Some p -> p | None -> Parallel.Pool.global ?jobs ()
  in
  match algorithm with
  | Dfs -> dfs_closure g
  | Warshall -> warshall_closure g
  | Scc_condense -> scc_closure g
  | Par_scc -> par_scc_closure (pool ()) g

(** [equal a b] is extensional equality of the two closures,
    short-circuiting on the first differing row. *)
let equal a b =
  a.size = b.size
  &&
  let rec rows_equal v =
    v >= a.size || (Bitvec.equal a.rows.(v) b.rows.(v) && rows_equal (v + 1))
  in
  rows_equal 0

(** Memoized on-demand reachability: computes and caches one DFS row per
    distinct source actually queried. *)
module On_demand = struct
  type nonrec t = {
    graph : Graph.t;
    cache : (int, Bitvec.t) Hashtbl.t;
  }

  (** [create g] wraps [g]; [g] must not be mutated afterwards. *)
  let create graph = { graph; cache = Hashtbl.create 64 }

  (** [row t v] is the (cached) reflexive descendant set of [v]. *)
  let row t v =
    match Hashtbl.find_opt t.cache v with
    | Some r -> r
    | None ->
      let r = Graph.reachable_from t.graph v in
      Hashtbl.add t.cache v r;
      r

  (** [reaches t u v] is reflexive reachability, computed lazily. *)
  let reaches t u v = Bitvec.get (row t u) v
end
