(** A bounded task executor over worker domains — the serving-side
    counterpart of [Pool]'s fork-join batches.

    [Pool] runs one caller-owned batch at a time; a server instead needs
    fire-and-forget submission from many connection handlers, with
    {e admission control}: the queue is bounded, and [try_submit]
    refuses (returns [false]) rather than buffering unboundedly — the
    wire layer turns that refusal into a [BUSY] reply, shedding load
    instead of collapsing under it.

    [pause] / [resume] exist for deterministic tests: a paused executor
    accepts work but runs nothing, so a test can fill the queue to
    capacity (forcing BUSY) or let a request time out, then [resume] and
    watch the backlog drain.  Production code never pauses.

    All synchronization is stdlib ([Mutex] / [Condition] / [Domain]);
    no timed waits are needed here — callers that want a timeout wait
    on their own result cell with {!Timed.wait}. *)

(* Registry handles resolved once at [create]: the per-event updates on
   the hot path are then a counter increment / gauge store each. *)
type metrics = {
  m_submitted : Obs.Counter.t;
  m_rejected : Obs.Counter.t;   (* the shed count: BUSY replies upstream *)
  m_completed : Obs.Counter.t;
  m_queue_depth : Obs.Gauge.t;
  m_running : Obs.Gauge.t;      (* worker utilization = running / workers *)
}

type t = {
  mutex : Mutex.t;
  has_work : Condition.t;
  idle : Condition.t;  (** signalled whenever queue and running reach 0 *)
  queue : (unit -> unit) Queue.t;
  queue_capacity : int;
  metrics : metrics option;
  mutable domains : unit Domain.t array;
  mutable paused : bool;
  mutable draining : bool;  (** no new admissions; drain what is queued *)
  mutable stop : bool;
  mutable running : int;
}

(* call with t.mutex held *)
let sync_metrics t =
  match t.metrics with
  | None -> ()
  | Some m ->
    Obs.Gauge.set m.m_queue_depth (float_of_int (Queue.length t.queue));
    Obs.Gauge.set m.m_running (float_of_int t.running)

let worker t =
  Mutex.lock t.mutex;
  let continue = ref true in
  while !continue do
    if t.stop then continue := false
    else if t.paused || Queue.is_empty t.queue then
      Condition.wait t.has_work t.mutex
    else begin
      let task = Queue.pop t.queue in
      t.running <- t.running + 1;
      sync_metrics t;
      Mutex.unlock t.mutex;
      (* tasks own their error reporting (the server wraps each in its
         reply cell); a raise here must not kill the worker domain *)
      (try task () with _ -> ());
      Mutex.lock t.mutex;
      t.running <- t.running - 1;
      (match t.metrics with
       | None -> ()
       | Some m -> Obs.Counter.incr m.m_completed);
      sync_metrics t;
      if Queue.is_empty t.queue && t.running = 0 then Condition.broadcast t.idle
    end
  done;
  Mutex.unlock t.mutex

(** [create ?registry ~workers ~queue_capacity ()] spawns
    [max 1 workers] domains servicing a queue that admits at most
    [max 1 queue_capacity] waiting tasks.  With [registry] the executor
    publishes [obda_executor_*] metrics (submissions, shed count via
    [rejected_total], completions, queue depth and running-worker
    gauges) into it. *)
let create ?registry ~workers ~queue_capacity () =
  let workers = max 1 workers in
  let metrics =
    Option.map
      (fun registry ->
        let counter = Obs.Registry.counter registry in
        let gauge name = Obs.Registry.gauge registry name in
        let m =
          {
            m_submitted = counter "obda_executor_submitted_total";
            m_rejected = counter "obda_executor_rejected_total";
            m_completed = counter "obda_executor_completed_total";
            m_queue_depth = gauge "obda_executor_queue_depth";
            m_running = gauge "obda_executor_running";
          }
        in
        Obs.Gauge.set (gauge "obda_executor_workers") (float_of_int workers);
        Obs.Gauge.set
          (gauge "obda_executor_queue_capacity")
          (float_of_int (max 1 queue_capacity));
        m)
      registry
  in
  let t =
    {
      mutex = Mutex.create ();
      has_work = Condition.create ();
      idle = Condition.create ();
      queue = Queue.create ();
      queue_capacity = max 1 queue_capacity;
      metrics;
      domains = [||];
      paused = false;
      draining = false;
      stop = false;
      running = 0;
    }
  in
  t.domains <- Array.init workers (fun _ -> Domain.spawn (fun () -> worker t));
  t

(** [try_submit t task] — [true] iff the task was admitted.  [false]
    means the queue is at capacity (or the executor is draining): the
    caller should shed the request. *)
let try_submit t task =
  Mutex.lock t.mutex;
  let admitted =
    if t.draining || t.stop || Queue.length t.queue >= t.queue_capacity then begin
      (match t.metrics with
       | None -> ()
       | Some m -> Obs.Counter.incr m.m_rejected);
      false
    end
    else begin
      Queue.push task t.queue;
      (match t.metrics with
       | None -> ()
       | Some m -> Obs.Counter.incr m.m_submitted);
      sync_metrics t;
      Condition.signal t.has_work;
      true
    end
  in
  Mutex.unlock t.mutex;
  admitted

let pause t =
  Mutex.lock t.mutex;
  t.paused <- true;
  Mutex.unlock t.mutex

let resume t =
  Mutex.lock t.mutex;
  t.paused <- false;
  Condition.broadcast t.has_work;
  Mutex.unlock t.mutex

(** [drain t] blocks until nothing is queued or running.  Does not stop
    admissions by itself — pair with [close] for shutdown, or call alone
    to wait for a quiescent point.  Hangs if the executor is paused. *)
let drain t =
  Mutex.lock t.mutex;
  while not (Queue.is_empty t.queue && t.running = 0) do
    Condition.wait t.idle t.mutex
  done;
  Mutex.unlock t.mutex

(** [close t] stops admitting new tasks; already-queued work still
    runs.  Returns the number of in-flight tasks (queued + running) at
    the moment of closing — the server reports this as its drain
    count. *)
let close t =
  Mutex.lock t.mutex;
  t.draining <- true;
  let in_flight = Queue.length t.queue + t.running in
  Mutex.unlock t.mutex;
  in_flight

(** [shutdown t] — close, drain, stop and join the worker domains. *)
let shutdown t =
  ignore (close t);
  resume t;  (* a paused executor could never drain *)
  drain t;
  Mutex.lock t.mutex;
  t.stop <- true;
  Condition.broadcast t.has_work;
  Mutex.unlock t.mutex;
  Array.iter Domain.join t.domains;
  t.domains <- [||]
