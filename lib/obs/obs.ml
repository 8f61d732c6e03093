(** Unified observability: a typed metrics registry plus trace spans.

    One process-wide vocabulary of metrics replaces the ad-hoc stats
    that used to live in each layer ([Service.op_stats], [Lru.stats],
    the executor's hand-kept counters).  Three metric kinds:

    - {e counters} — monotonically increasing integers ([Atomic.t], so
      increments from any number of domains lose no counts);
    - {e gauges} — instantaneous floats (a mutex-protected cell;
      float atomics are unsafe to CAS in OCaml because the compiler
      may rebox, breaking physical equality);
    - {e histograms} — fixed upper-bound buckets with atomic per-bucket
      counters, plus mutex-guarded sum/max.  Quantile readout (p50,
      p95, p99) reports the upper bound of the bucket holding the
      requested rank — the standard fixed-bucket estimate, exact to
      one bucket's resolution.

    Metrics live in a {!Registry} keyed by [(name, sorted labels)];
    lookups are get-or-create, so instrumentation points never need
    set-up calls.  Two renderings are provided: a flat {!Registry.samples}
    list (the wire [STATS] v2 schema renders this) and a Prometheus-style
    text {!Registry.exposition}.

    {!span} wraps a computation in a named timed phase: its latency is
    recorded into [obda_phase_seconds{phase=<name>}], spans nest (a
    per-domain stack gives each record its [a>b>c] path), and any span
    slower than {!set_slow_log_threshold} is reported through [Logs]. *)

let log_src = Logs.Src.create "obs" ~doc:"metrics registry and trace spans"

module Log = (val Logs.src_log log_src : Logs.LOG)

let now () = Unix.gettimeofday ()

(* ------------------------------ counters ----------------------------- *)

module Counter = struct
  type t = int Atomic.t

  let make () = Atomic.make 0

  (** [incr ?by t] adds [by] (default 1).  Counters are monotonic:
      a negative increment is a programming error and raises. *)
  let incr ?(by = 1) t =
    if by < 0 then invalid_arg "Obs.Counter.incr: negative increment";
    ignore (Atomic.fetch_and_add t by)

  let value t = Atomic.get t
end

(* ------------------------------- gauges ------------------------------ *)

module Gauge = struct
  type t = { mu : Mutex.t; mutable v : float }

  let make () = { mu = Mutex.create (); v = 0.0 }

  let set t x =
    Mutex.lock t.mu;
    t.v <- x;
    Mutex.unlock t.mu

  let add t dx =
    Mutex.lock t.mu;
    t.v <- t.v +. dx;
    Mutex.unlock t.mu

  let value t =
    Mutex.lock t.mu;
    let v = t.v in
    Mutex.unlock t.mu;
    v
end

(* ----------------------------- histograms ---------------------------- *)

module Histogram = struct
  type t = {
    bounds : float array;          (** strictly increasing upper bounds *)
    buckets : int Atomic.t array;  (** |bounds| + 1; last is overflow *)
    total : int Atomic.t;
    mu : Mutex.t;                  (** guards [sum] and [max] *)
    mutable sum : float;
    mutable max : float;
  }

  (** 1µs .. 10s in a 1-2.5-5 ladder: spans six decades, which covers
      everything from a warm cache hit to a cold classification. *)
  let latency_buckets =
    [|
      1e-6; 2.5e-6; 5e-6; 1e-5; 2.5e-5; 5e-5; 1e-4; 2.5e-4; 5e-4; 1e-3;
      2.5e-3; 5e-3; 1e-2; 2.5e-2; 5e-2; 0.1; 0.25; 0.5; 1.0; 2.5; 5.0; 10.0;
    |]

  (** powers of two up to 4096, for size-like observations (UCQ
      disjunct counts, payload lines). *)
  let size_buckets =
    [| 1.; 2.; 4.; 8.; 16.; 32.; 64.; 128.; 256.; 512.; 1024.; 2048.; 4096. |]

  let make ?(buckets = latency_buckets) () =
    let n = Array.length buckets in
    if n = 0 then invalid_arg "Obs.Histogram.make: empty bucket list";
    for i = 1 to n - 1 do
      if buckets.(i) <= buckets.(i - 1) then
        invalid_arg "Obs.Histogram.make: bounds must be strictly increasing"
    done;
    {
      bounds = Array.copy buckets;
      buckets = Array.init (n + 1) (fun _ -> Atomic.make 0);
      total = Atomic.make 0;
      mu = Mutex.create ();
      sum = 0.0;
      max = 0.0;
    }

  (* first bucket whose upper bound admits [v]; |bounds| = overflow *)
  let bucket_index bounds v =
    let n = Array.length bounds in
    let lo = ref 0 and hi = ref n in
    while !lo < !hi do
      let mid = (!lo + !hi) / 2 in
      if v <= bounds.(mid) then hi := mid else lo := mid + 1
    done;
    !lo

  let observe t v =
    ignore (Atomic.fetch_and_add t.buckets.(bucket_index t.bounds v) 1);
    ignore (Atomic.fetch_and_add t.total 1);
    Mutex.lock t.mu;
    t.sum <- t.sum +. v;
    if v > t.max then t.max <- v;
    Mutex.unlock t.mu

  let count t = Atomic.get t.total

  let sum t =
    Mutex.lock t.mu;
    let s = t.sum in
    Mutex.unlock t.mu;
    s

  let max_value t =
    Mutex.lock t.mu;
    let m = t.max in
    Mutex.unlock t.mu;
    m

  (** [quantile t q] for [q ∈ [0, 1]]: the upper bound of the bucket
      containing the observation of rank [⌈q·count⌉] (the largest
      observed value stands in for the unbounded overflow bucket).
      0 when nothing was observed.  Concurrent [observe]s may skew a
      reading by the in-flight observations — fine for telemetry. *)
  let quantile t q =
    let total = count t in
    if total = 0 then 0.0
    else begin
      let rank = Stdlib.max 1 (int_of_float (ceil (q *. float_of_int total))) in
      let n = Array.length t.bounds in
      let rec scan i cum =
        if i >= n then max_value t
        else
          let cum = cum + Atomic.get t.buckets.(i) in
          if cum >= rank then Stdlib.min t.bounds.(i) (max_value t)
          else scan (i + 1) cum
      in
      scan 0 0
    end

  type summary = {
    count : int;
    sum : float;
    max : float;
    p50 : float;
    p95 : float;
    p99 : float;
  }

  let summary t =
    {
      count = count t;
      sum = sum t;
      max = max_value t;
      p50 = quantile t 0.50;
      p95 = quantile t 0.95;
      p99 = quantile t 0.99;
    }

  (** [(upper bound, cumulative count)] pairs, overflow last as
      [(infinity, total)] — the Prometheus [le] series. *)
  let cumulative t =
    let n = Array.length t.bounds in
    let acc = ref 0 in
    let rows =
      Array.to_list
        (Array.init n (fun i ->
             acc := !acc + Atomic.get t.buckets.(i);
             (t.bounds.(i), !acc)))
    in
    rows @ [ (infinity, !acc + Atomic.get t.buckets.(n)) ]
end

(* ------------------------------ registry ----------------------------- *)

type metric =
  | M_counter of Counter.t
  | M_gauge of Gauge.t
  | M_histogram of Histogram.t

type sample = {
  name : string;
  labels : (string * string) list;  (** sorted by key *)
  value : float;
}

(** Render a float the way both STATS v2 and the exposition format do:
    integral values without an exponent or trailing zeros, everything
    else in shortest-roundish form. *)
let string_of_value v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else Printf.sprintf "%.9g" v

module Registry = struct
  type t = {
    mu : Mutex.t;
    tbl : (string * (string * string) list, metric) Hashtbl.t;
  }

  let create () = { mu = Mutex.create (); tbl = Hashtbl.create 64 }

  let canon labels = List.sort compare labels

  let kind_name = function
    | M_counter _ -> "counter"
    | M_gauge _ -> "gauge"
    | M_histogram _ -> "histogram"

  (* get-or-create under the registry mutex; a name registered under a
     different kind is a vocabulary clash and raises *)
  let intern t name labels make expect =
    let key = (name, canon labels) in
    Mutex.lock t.mu;
    let m =
      match Hashtbl.find_opt t.tbl key with
      | Some m -> m
      | None ->
        let m = make () in
        Hashtbl.replace t.tbl key m;
        m
    in
    Mutex.unlock t.mu;
    match expect m with
    | Some v -> v
    | None ->
      invalid_arg
        (Printf.sprintf "Obs: metric %s is a %s, requested as another kind" name
           (kind_name m))

  let counter t ?(labels = []) name =
    intern t name labels
      (fun () -> M_counter (Counter.make ()))
      (function M_counter c -> Some c | _ -> None)

  let gauge t ?(labels = []) name =
    intern t name labels
      (fun () -> M_gauge (Gauge.make ()))
      (function M_gauge g -> Some g | _ -> None)

  let histogram t ?(labels = []) ?buckets name =
    intern t name labels
      (fun () -> M_histogram (Histogram.make ?buckets ()))
      (function M_histogram h -> Some h | _ -> None)

  (** [remove t name ~labels] unregisters one metric (e.g. a dropped
      session's cache gauges); unknown names are ignored. *)
  let remove t ?(labels = []) name =
    Mutex.lock t.mu;
    Hashtbl.remove t.tbl (name, canon labels);
    Mutex.unlock t.mu

  let snapshot t =
    Mutex.lock t.mu;
    let entries =
      Hashtbl.fold (fun (name, labels) m acc -> (name, labels, m) :: acc) t.tbl []
    in
    Mutex.unlock t.mu;
    List.sort
      (fun (n1, l1, _) (n2, l2, _) -> compare (n1, l1) (n2, l2))
      entries

  (** Flat samples, sorted by (name, labels).  Histograms flatten into
      [_count] / [_sum] / [_max] / [_p50] / [_p95] / [_p99] series. *)
  let samples t =
    List.concat_map
      (fun (name, labels, m) ->
        match m with
        | M_counter c ->
          [ { name; labels; value = float_of_int (Counter.value c) } ]
        | M_gauge g -> [ { name; labels; value = Gauge.value g } ]
        | M_histogram h ->
          let s = Histogram.summary h in
          [
            { name = name ^ "_count"; labels; value = float_of_int s.count };
            { name = name ^ "_sum"; labels; value = s.sum };
            { name = name ^ "_max"; labels; value = s.max };
            { name = name ^ "_p50"; labels; value = s.p50 };
            { name = name ^ "_p95"; labels; value = s.p95 };
            { name = name ^ "_p99"; labels; value = s.p99 };
          ])
      (snapshot t)

  (* ------------------------- text exposition ------------------------ *)

  let escape_label_value v =
    let buf = Buffer.create (String.length v) in
    String.iter
      (fun c ->
        match c with
        | '\\' -> Buffer.add_string buf "\\\\"
        | '"' -> Buffer.add_string buf "\\\""
        | '\n' -> Buffer.add_string buf "\\n"
        | c -> Buffer.add_char buf c)
      v;
    Buffer.contents buf

  let render_labels = function
    | [] -> ""
    | labels ->
      "{"
      ^ String.concat ","
          (List.map
             (fun (k, v) -> Printf.sprintf "%s=%S" k (escape_label_value v))
             labels)
      ^ "}"

  let le_bound b = if b = infinity then "+Inf" else Printf.sprintf "%g" b

  (** Prometheus-style text exposition.  The first line is
      [# stats.version 2] — the same schema version the wire STATS reply
      announces, so scrapers can assert they are talking to this PR's
      vocabulary. *)
  let exposition t =
    let buf = Buffer.create 4096 in
    Buffer.add_string buf "# stats.version 2\n";
    let last_family = ref "" in
    List.iter
      (fun (name, labels, m) ->
        if name <> !last_family then begin
          last_family := name;
          Buffer.add_string buf
            (Printf.sprintf "# TYPE %s %s\n" name (kind_name m))
        end;
        match m with
        | M_counter c ->
          Buffer.add_string buf
            (Printf.sprintf "%s%s %d\n" name (render_labels labels)
               (Counter.value c))
        | M_gauge g ->
          Buffer.add_string buf
            (Printf.sprintf "%s%s %s\n" name (render_labels labels)
               (string_of_value (Gauge.value g)))
        | M_histogram h ->
          List.iter
            (fun (bound, cum) ->
              Buffer.add_string buf
                (Printf.sprintf "%s_bucket%s %d\n" name
                   (render_labels (labels @ [ ("le", le_bound bound) ]))
                   cum))
            (Histogram.cumulative h);
          Buffer.add_string buf
            (Printf.sprintf "%s_sum%s %s\n" name (render_labels labels)
               (string_of_value (Histogram.sum h)));
          Buffer.add_string buf
            (Printf.sprintf "%s_count%s %d\n" name (render_labels labels)
               (Histogram.count h)))
      (snapshot t);
    Buffer.contents buf
end

type registry = Registry.t

(** The process-wide default registry: library instrumentation points
    (spans, the database insert counter, ...) record here unless handed
    an explicit registry. *)
let default : registry = Registry.create ()

let counter ?(registry = default) ?labels name =
  Registry.counter registry ?labels name

let gauge ?(registry = default) ?labels name =
  Registry.gauge registry ?labels name

let histogram ?(registry = default) ?labels ?buckets name =
  Registry.histogram registry ?labels ?buckets name

(* ------------------------------- spans ------------------------------- *)

(* [Atomic] over a boxed float is safe for plain get/set (only CAS is
   hazardous); infinity disables the slow log. *)
let slow_threshold = Atomic.make infinity

(** [set_slow_log_threshold s] — spans (and service ops) taking [s]
    seconds or longer are reported through [Logs] at warning level;
    [infinity] (the default) disables the slow log. *)
let set_slow_log_threshold s = Atomic.set slow_threshold s

let slow_log_threshold () = Atomic.get slow_threshold

(** [slow_check path elapsed] — the slow-log test, exposed so that
    non-span timing sites (the service's per-op wrapper) share it. *)
let slow_check path elapsed =
  let threshold = Atomic.get slow_threshold in
  if elapsed >= threshold then
    Log.warn (fun m ->
        m "slow: %s took %.3fs (threshold %.3fs)" path elapsed threshold)

(* per-domain span stack: nesting without any cross-domain coordination *)
let span_stack : string list ref Domain.DLS.key =
  Domain.DLS.new_key (fun () -> ref [])

(** [span ?registry name f] runs [f ()] inside a named phase: its
    wall-clock latency is recorded into
    [obda_phase_seconds{phase=<name>}] (also when [f] raises — a failed
    phase still spent the time), and the slow log reports the full
    nesting path ([classify>classify.closure]).  Spans nest freely
    within a domain; each domain has its own stack. *)
let span ?(registry = default) name f =
  let stack = Domain.DLS.get span_stack in
  stack := name :: !stack;
  let path = String.concat ">" (List.rev !stack) in
  let h = Registry.histogram registry ~labels:[ ("phase", name) ] "obda_phase_seconds" in
  let t0 = now () in
  Fun.protect
    ~finally:(fun () ->
      let elapsed = now () -. t0 in
      (match !stack with _ :: rest -> stack := rest | [] -> ());
      Histogram.observe h elapsed;
      slow_check path elapsed)
    f

(** [time h f] — record [f]'s latency into histogram [h] (also on
    raise).  The bare timing combinator for sites that manage their own
    metric handle and don't want span nesting. *)
let time h f =
  let t0 = now () in
  Fun.protect ~finally:(fun () -> Histogram.observe h (now () -. t0)) f
