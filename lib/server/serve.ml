(** The networked front end: TCP and Unix-domain-socket accept loops
    feeding the shared [Service] through a bounded [Parallel.Executor].

    Threading model: each listener gets an accept thread; each accepted
    connection gets a handler thread ([threads.posix] — connection
    handling is I/O-bound).  Request {e execution} is dispatched onto
    the executor's worker domains.  [Service] locks per session, so
    CPU-bound work (classification, rewriting) parallelizes across
    {e distinct} sessions; requests against one session serialize on its
    mutex — a session is a single mutable knowledge base.  Admission
    stays bounded either way: a full queue turns into an immediate
    [BUSY] reply instead of an ever-growing backlog.

    Each dispatched request gets a deadline.  The handler waits on its
    result cell's condition with {!Parallel.Timed.wait}, which the task
    signals when it fills the cell and which returns at the deadline
    otherwise; the waiting thread is a cheap OS thread, not a worker
    domain.  A timed-out request answers [ERR timeout]; the task itself
    is {e not} cancelled — it completes on its worker (discarding its
    result) and meanwhile occupies that worker and its session's mutex,
    so the timeout bounds the client's wait, not the worker's.  Size
    [workers] and [request_timeout_s] for the slowest request a
    deployment should absorb.

    [stop] makes shutdown graceful: listeners close (no new
    connections), the executor stops admitting and drains in-flight
    requests, then remaining connections are shut down.  It returns the
    number of requests that were in flight when the drain began; those
    are also counted as [obda_requests_total{result="drained"}], and a
    store attached to the service is sync'd and closed — the last
    acknowledged mutation is on disk before the process exits.

    Connection I/O goes through {!Durable.Io} (EINTR-retried reads,
    partial-write-completing writes) — the same helpers the WAL uses —
    so a signal landing mid-syscall can no longer masquerade as a dead
    connection. *)

type config = {
  workers : int;           (** executor worker domains *)
  queue_capacity : int;    (** admission queue bound; excess sheds BUSY *)
  request_timeout_s : float;
  limits : Wire.limits;
}
(* service-level knobs (slow log, caches, engine) live in
   [Service.Config]; this record is purely the connection/dispatch
   layer *)

let default_config =
  {
    workers = 2;
    queue_capacity = 64;
    request_timeout_s = 30.0;
    limits = Wire.default_limits;
  }

(** The cluster node's hooks into the serve loop.  [REPL] verbs are
    handled {e inline} on the connection thread, never queued: STATUS
    and PROMOTE must keep working while the executor is saturated —
    failover probes a wedged node too.  [rh_subscribe] sends its own
    reply and then owns the connection as a replication stream; it
    returns only when the stream ends (the handler thread becomes the
    primary's ACK reader for that subscriber). *)
type repl_hooks = {
  rh_status : unit -> Wire.reply;
  rh_promote : epoch:int -> Wire.reply;
  rh_subscribe :
    fence:int -> epoch:int -> fd:Unix.file_descr ->
    reader:Durable.Io.reader -> unit;
}

(* request-lifecycle metric handles, resolved once at [create] *)
type req_metrics = {
  m_ok : Obs.Counter.t;
  m_err : Obs.Counter.t;
  m_busy : Obs.Counter.t;
  m_timeout : Obs.Counter.t;
  m_drained : Obs.Counter.t;    (** in flight when a graceful stop began *)
  m_seconds : Obs.Histogram.t;  (** full lifecycle: dispatch to reply *)
}

type t = {
  service : Service.t;
  exec : Parallel.Executor.t;
  config : config;
  repl : repl_hooks option;
  rm : req_metrics;
  mutex : Mutex.t;
  mutable listeners : Unix.file_descr list;
  mutable conns : Unix.file_descr list;   (** live connection sockets *)
  mutable accept_threads : Thread.t list;
  mutable stopping : bool;
}

let create ?(config = default_config) ?repl_hooks service =
  let registry = Service.registry service in
  let result_counter r =
    Obs.Registry.counter registry ~labels:[ ("result", r) ] "obda_requests_total"
  in
  {
    service;
    exec =
      Parallel.Executor.create ~registry ~workers:config.workers
        ~queue_capacity:config.queue_capacity ();
    config;
    repl = repl_hooks;
    rm =
      {
        m_ok = result_counter "ok";
        m_err = result_counter "err";
        m_busy = result_counter "busy";
        m_timeout = result_counter "timeout";
        m_drained = result_counter "drained";
        m_seconds = Obs.Registry.histogram registry "obda_request_seconds";
      };
    mutex = Mutex.create ();
    listeners = [];
    conns = [];
    accept_threads = [];
    stopping = false;
  }

let executor t = t.exec

(* ----------------------------- listeners ---------------------------- *)

let listen_unix t path =
  (match Unix.lstat path with
   | { Unix.st_kind = Unix.S_SOCK; _ } -> Unix.unlink path  (* stale socket *)
   | _ -> ()
   | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ());
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.bind fd (Unix.ADDR_UNIX path);
  Unix.listen fd 64;
  t.listeners <- fd :: t.listeners;
  fd

(** [listen_tcp t ~host ~port] binds and returns the actually bound
    port (useful with [port = 0] in tests). *)
let listen_tcp t ~host ~port =
  let addr =
    try Unix.inet_addr_of_string host
    with Failure _ -> Unix.inet_addr_loopback
  in
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.setsockopt fd Unix.SO_REUSEADDR true;
  Unix.bind fd (Unix.ADDR_INET (addr, port));
  Unix.listen fd 64;
  t.listeners <- fd :: t.listeners;
  match Unix.getsockname fd with
  | Unix.ADDR_INET (_, bound) -> bound
  | _ -> port

(* ------------------------- request dispatch ------------------------- *)

type cell = {
  cm : Mutex.t;
  filled : Condition.t;  (** signalled by the task with [result] set *)
  mutable result : Wire.reply option;
}

let dispatch t request =
  let t0 = Unix.gettimeofday () in
  let finish counter reply =
    Obs.Histogram.observe t.rm.m_seconds (Unix.gettimeofday () -. t0);
    Obs.Counter.incr counter;
    reply
  in
  match Durable.Failpoint.check "serve.request" with
  | exception Durable.Failpoint.Injected name ->
    finish t.rm.m_err (Wire.Err ("injected fault at " ^ name))
  | () ->
  let cell =
    { cm = Mutex.create (); filled = Condition.create (); result = None }
  in
  let task () =
    let reply =
      try Service.handle t.service request
      with e -> Wire.Err ("internal error: " ^ Printexc.to_string e)
    in
    Mutex.lock cell.cm;
    cell.result <- Some reply;
    Condition.signal cell.filled;
    Mutex.unlock cell.cm
  in
  if not (Parallel.Executor.try_submit t.exec task) then
    finish t.rm.m_busy Wire.Busy
  else begin
    let deadline = Unix.gettimeofday () +. t.config.request_timeout_s in
    Mutex.lock cell.cm;
    while cell.result = None && Unix.gettimeofday () < deadline do
      Parallel.Timed.wait cell.cm cell.filled ~until:deadline
    done;
    let r = cell.result in
    Mutex.unlock cell.cm;
    match r with
    | Some (Wire.Ok _ as reply) -> finish t.rm.m_ok reply
    | Some reply -> finish t.rm.m_err reply
    | None ->
      finish t.rm.m_timeout
        (Wire.Err
           (Printf.sprintf "timeout after %.1fs" t.config.request_timeout_s))
  end

(* --------------------------- connections ---------------------------- *)

(* one framed write per reply: header and payload lines in one buffer *)
let send_reply fd reply = Durable.Io.write_lines fd (Wire.encode_reply reply)

let forget_conn t fd =
  Mutex.lock t.mutex;
  t.conns <- List.filter (fun c -> c != fd) t.conns;
  Mutex.unlock t.mutex

let handle_connection t fd =
  let reader = Durable.Io.reader fd in
  let decoder = Wire.decoder ~limits:t.config.limits () in
  (* the negotiated protocol version is per-connection state: bare
     clients that never send HELLO stay on v1 and keep the PR-6 verb
     set; v2-only verbs are refused with a pointed ERR instead of a
     parse failure, so an old server and a missing handshake are
     distinguishable from a typo *)
  let proto = ref 1 in
  let rec loop () =
    match
      Durable.Io.read_line reader ~max_line:t.config.limits.Wire.max_line
    with
    | None -> ()
    | Some line -> (
      match Wire.feed decoder line with
      | Wire.More -> loop ()
      | Wire.Error e ->
        send_reply fd (Wire.Err e);
        loop ()
      | Wire.Request Wire.Quit -> send_reply fd (Wire.Ok [])
      | Wire.Request (Wire.Hello v) ->
        let granted = min v Wire.max_version in
        proto := granted;
        send_reply fd (Wire.Ok [ Wire.hello_reply granted ]);
        loop ()
      | Wire.Request request when Wire.min_version request > !proto ->
        let v = Wire.min_version request in
        let verb =
          match request with
          | Wire.Bulk_chunk _ | Wire.Bulk_end _ | Wire.Bulk_abort _ -> "BULK"
          | Wire.Repl_subscribe _ | Wire.Repl_status | Wire.Repl_promote _ ->
            "REPL"
          | _ -> "this verb"
        in
        send_reply fd
          (Wire.Err
             (Printf.sprintf "%s requires protocol v%d: send HELLO %d first"
                verb v v));
        loop ()
      (* REPL verbs run inline on the connection thread, never queued:
         failover must be able to probe and promote a node whose
         executor is wedged *)
      | Wire.Request (Wire.Repl_subscribe { fence; epoch }) -> (
        match t.repl with
        | None ->
          send_reply fd (Wire.Err "replication not enabled on this server");
          loop ()
        | Some h ->
          (* the hook replies itself, then owns the fd as a record
             stream; when it returns the connection is done *)
          h.rh_subscribe ~fence ~epoch ~fd ~reader)
      | Wire.Request Wire.Repl_status ->
        (match t.repl with
         | None ->
           send_reply fd (Wire.Err "replication not enabled on this server")
         | Some h -> send_reply fd (h.rh_status ()));
        loop ()
      | Wire.Request (Wire.Repl_promote { epoch }) ->
        (match t.repl with
         | None ->
           send_reply fd (Wire.Err "replication not enabled on this server")
         | Some h -> send_reply fd (h.rh_promote ~epoch));
        loop ()
      | Wire.Request request ->
        send_reply fd (dispatch t request);
        loop ())
  in
  (try loop () with Sys_error _ | End_of_file | Unix.Unix_error _ -> ());
  forget_conn t fd;
  (try Unix.close fd with Unix.Unix_error _ -> ())

(* Polling accept: a thread parked in accept(2) is not woken by another
   thread closing the listener, so [stop] could never join it.  Select
   with a short timeout instead, re-checking [stopping] each round. *)
let accept_loop t listener =
  let continue = ref true in
  while !continue do
    Mutex.lock t.mutex;
    let stopping = t.stopping in
    Mutex.unlock t.mutex;
    if stopping then continue := false
    else
      match Unix.select [ listener ] [] [] 0.2 with
      | [], _, _ -> ()
      | _ -> (
        match Unix.accept listener with
        | fd, _ ->
          Mutex.lock t.mutex;
          t.conns <- fd :: t.conns;
          Mutex.unlock t.mutex;
          ignore (Thread.create (fun () -> handle_connection t fd) ())
        | exception Unix.Unix_error _ -> continue := false)
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
      | exception Unix.Unix_error _ -> continue := false  (* listener closed *)
  done

(** [start t] spawns one accept thread per registered listener.  Call
    after [listen_unix] / [listen_tcp]. *)
let start t =
  t.accept_threads <-
    List.map (fun l -> Thread.create (fun () -> accept_loop t l) ()) t.listeners

(** [stop t] — graceful shutdown: close listeners, drain in-flight
    requests, shut remaining connections down, join accept threads.
    Returns the number of requests that were in flight when the drain
    began. *)
let stop t =
  Mutex.lock t.mutex;
  t.stopping <- true;
  Mutex.unlock t.mutex;
  List.iter (fun l -> try Unix.close l with Unix.Unix_error _ -> ()) t.listeners;
  let in_flight = Parallel.Executor.close t.exec in
  Parallel.Executor.resume t.exec;
  Parallel.Executor.drain t.exec;
  Mutex.lock t.mutex;
  let conns = t.conns in
  Mutex.unlock t.mutex;
  List.iter
    (fun fd -> try Unix.shutdown fd Unix.SHUTDOWN_ALL with Unix.Unix_error _ -> ())
    conns;
  List.iter Thread.join t.accept_threads;
  t.accept_threads <- [];
  Parallel.Executor.shutdown t.exec;
  Obs.Counter.incr ~by:in_flight t.rm.m_drained;
  (* sync and close an attached store: the drain's last acknowledged
     mutation is on disk before the process exits *)
  (match Service.attached_store t.service with
   | Some store -> Durable.Store.close store
   | None -> ());
  in_flight
