(** A bounded least-recently-used cache with hit/miss/eviction counters.

    The cache is a plain polymorphic map (structural key equality via
    [Hashtbl]) threaded on an intrusive doubly-linked list: [find]
    promotes its entry to the front, [put] inserts at the front and
    evicts from the back once over capacity.  All operations are O(1).

    Degenerate capacities are first-class citizens — the serving layer's
    invalidation property is tested at every capacity including these:
    - [capacity = 0] stores nothing: every [find] is a miss, every [put]
      a no-op (counted as an insertion that evicts itself);
    - [capacity = 1] holds exactly the most recently inserted or hit
      entry.

    Counters can be published into an [Obs] registry: pass
    [~metrics:(registry, labels)] to [create] and the cache registers
    [obda_cache_{hits,misses,evictions,insertions}_total] counters plus
    [obda_cache_{size,capacity}] gauges under those labels (the caller
    picks labels that identify the cache, e.g. [cache=rewrite]).
    [unregister] removes them again when the cache is dropped.

    Not thread-safe; the owner ([Service]) serializes access. *)

type ('k, 'v) node = {
  key : 'k;
  mutable value : 'v;
  mutable prev : ('k, 'v) node option;  (** towards the front (MRU) *)
  mutable next : ('k, 'v) node option;  (** towards the back (LRU) *)
}

(* handles resolved once at [create]; per-operation updates are one
   atomic increment / gauge store each *)
type obs_handles = {
  o_registry : Obs.registry;
  o_labels : (string * string) list;
  o_hits : Obs.Counter.t;
  o_misses : Obs.Counter.t;
  o_evictions : Obs.Counter.t;
  o_insertions : Obs.Counter.t;
  o_size : Obs.Gauge.t;
}

type ('k, 'v) t = {
  capacity : int;
  table : ('k, ('k, 'v) node) Hashtbl.t;
  obs : obs_handles option;
  mutable front : ('k, 'v) node option;
  mutable back : ('k, 'v) node option;
  mutable hits : int;
  mutable misses : int;
  mutable evictions : int;
  mutable insertions : int;
}

let metric_names =
  [
    "obda_cache_hits_total";
    "obda_cache_misses_total";
    "obda_cache_evictions_total";
    "obda_cache_insertions_total";
    "obda_cache_size";
    "obda_cache_capacity";
  ]

let create ?metrics ~capacity () =
  if capacity < 0 then invalid_arg "Lru.create: negative capacity";
  let obs =
    Option.map
      (fun (registry, labels) ->
        let counter name = Obs.Registry.counter registry ~labels name in
        let gauge name = Obs.Registry.gauge registry ~labels name in
        Obs.Gauge.set (gauge "obda_cache_capacity") (float_of_int capacity);
        {
          o_registry = registry;
          o_labels = labels;
          o_hits = counter "obda_cache_hits_total";
          o_misses = counter "obda_cache_misses_total";
          o_evictions = counter "obda_cache_evictions_total";
          o_insertions = counter "obda_cache_insertions_total";
          o_size = gauge "obda_cache_size";
        })
      metrics
  in
  {
    capacity;
    table = Hashtbl.create (max 16 capacity);
    obs;
    front = None;
    back = None;
    hits = 0;
    misses = 0;
    evictions = 0;
    insertions = 0;
  }

let capacity t = t.capacity
let length t = Hashtbl.length t.table

let obs_count t pick =
  match t.obs with None -> () | Some o -> Obs.Counter.incr (pick o)

let sync_size t =
  match t.obs with
  | None -> ()
  | Some o -> Obs.Gauge.set o.o_size (float_of_int (length t))

(** [unregister t] removes this cache's metrics from its registry (a
    no-op for caches created without [~metrics]); call when the cache's
    owner goes away, or its last gauge values would linger forever. *)
let unregister t =
  match t.obs with
  | None -> ()
  | Some o ->
    List.iter
      (fun name -> Obs.Registry.remove o.o_registry ~labels:o.o_labels name)
      metric_names

(** [hit_rate t] ∈ [0, 1]; 0 when no lookups happened yet. *)
let hit_rate (t : ('k, 'v) t) =
  let total = t.hits + t.misses in
  if total = 0 then 0.0 else float_of_int t.hits /. float_of_int total

(* unlink [n] from the list (it must be a member) *)
let unlink t n =
  (match n.prev with Some p -> p.next <- n.next | None -> t.front <- n.next);
  (match n.next with Some s -> s.prev <- n.prev | None -> t.back <- n.prev);
  n.prev <- None;
  n.next <- None

let push_front t n =
  n.next <- t.front;
  n.prev <- None;
  (match t.front with Some f -> f.prev <- Some n | None -> t.back <- Some n);
  t.front <- Some n

(* physical comparison against the node inside [front], not against a
   freshly allocated [Some n] (which would never be equal) *)
let promote t n =
  match t.front with
  | Some f when f == n -> ()
  | _ ->
    unlink t n;
    push_front t n

let evict_back (t : ('k, 'v) t) =
  match t.back with
  | None -> ()
  | Some n ->
    unlink t n;
    Hashtbl.remove t.table n.key;
    t.evictions <- t.evictions + 1;
    obs_count t (fun o -> o.o_evictions)

let count_miss (t : ('k, 'v) t) =
  t.misses <- t.misses + 1;
  obs_count t (fun o -> o.o_misses)

(** [find ?hit t k] returns the cached value and promotes the entry.
    The lookup counts as a hit only when [hit] holds of the value
    (default: always); a binding the caller is about to refresh in
    place, such as a version-stamped answer set that predates the
    current version, is returned but counted as a miss. *)
let find ?(hit = fun _ -> true) (t : ('k, 'v) t) k =
  match Hashtbl.find_opt t.table k with
  | Some n ->
    if hit n.value then begin
      t.hits <- t.hits + 1;
      obs_count t (fun o -> o.o_hits)
    end
    else count_miss t;
    promote t n;
    Some n.value
  | None ->
    count_miss t;
    None

(** [mem t k] — membership without promotion or counter updates. *)
let mem t k = Hashtbl.mem t.table k

(** [put t k v] inserts or refreshes the binding, evicting the
    least-recently-used entries beyond capacity. *)
let put (t : ('k, 'v) t) k v =
  t.insertions <- t.insertions + 1;
  obs_count t (fun o -> o.o_insertions);
  (if t.capacity = 0 then begin
     t.evictions <- t.evictions + 1;
     obs_count t (fun o -> o.o_evictions)
   end
   else
     match Hashtbl.find_opt t.table k with
     | Some n ->
       n.value <- v;
       promote t n
     | None ->
       let n = { key = k; value = v; prev = None; next = None } in
       Hashtbl.replace t.table k n;
       push_front t n;
       while length t > t.capacity do
         evict_back t
       done);
  sync_size t

(** [remove t k] drops the binding if present (not counted as an
    eviction: removals are invalidations, not capacity pressure). *)
let remove t k =
  match Hashtbl.find_opt t.table k with
  | None -> ()
  | Some n ->
    unlink t n;
    Hashtbl.remove t.table k;
    sync_size t

(** [clear t] drops every binding; counters are kept (they describe the
    cache's lifetime, not its current contents). *)
let clear t =
  Hashtbl.reset t.table;
  t.front <- None;
  t.back <- None;
  sync_size t

(** [keys t] — front (most recent) to back (least recent); for tests. *)
let keys t =
  let rec go acc = function
    | None -> List.rev acc
    | Some n -> go (n.key :: acc) n.next
  in
  go [] t.front
