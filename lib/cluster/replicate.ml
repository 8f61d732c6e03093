(** WAL shipping: the primary-side {!Hub} fans the durable commit
    stream out to subscribed replicas, the replica-side {!Subscriber}
    pulls it in and applies every record through the same path recovery
    uses.

    The unit of replication is the WAL record exactly as the primary
    framed it — the replica appends it under the {e primary's} sequence
    number ({!Durable.Store.append_raw}), so the replication fence is
    simply the replica's [last_seq] and survives restarts without any
    extra bookkeeping file.

    Epoch discipline: every shipped record carries the primary's epoch.
    A subscriber that sees a {e lower} epoch than its own NACKs and
    disconnects (the sender is a fenced ex-primary); the hub, told by a
    NACK or a subscription attempt that a higher epoch exists, fences
    itself — every later mutation is refused before it is logged.  A
    subscriber with a lower epoch than the hub is forced through RESET
    catch-up, which discards whatever unreplicated WAL suffix it wrote
    while it was a primary of a dead epoch. *)

module Store = Durable.Store
module Io = Durable.Io
module Failpoint = Durable.Failpoint
module Wire = Server.Wire
module Service = Server.Service
module Client = Server.Client

let log_src = Logs.Src.create "cluster" ~doc:"replication hub + subscriber"

module Log = (val Logs.src_log log_src : Logs.LOG)

let max_line = 1 lsl 20

(* split an encoded mutation into frame payload lines; the count is
   carried in the frame header so empty lines survive the round trip *)
let payload_lines payload = String.split_on_char '\n' payload

(* a frame header and its payload lines go out in one framed write, so
   an armed [partial:K] failpoint tears the frame exactly as it would a
   single write of its bytes *)
let write_frame ?failpoint fd frame lines =
  Io.write_lines ?failpoint fd (Wire.encode_frame frame :: lines)

(* ------------------------------- hub --------------------------------- *)

module Hub = struct
  type member = {
    id : int;
    peer : string;
    fd : Unix.file_descr;
    q : (int * string) Queue.t;  (** live records awaiting send *)
    mutable acked : int;   (** highest sequence number the replica acked *)
    mutable alive : bool;
  }

  type t = {
    store : Store.t;
    epoch : unit -> int;  (** the owning node's current epoch *)
    on_fence : int -> unit;
        (** durably record the learned higher epoch {e before} the
            fence takes effect (node-side: marker file + epoch) *)
    ack_timeout : float;
        (** how long a mutation waits for the first replica ack before
            the hub drops the laggards and proceeds standalone *)
    queue_capacity : int;
    mu : Mutex.t;
    cond : Condition.t;
        (** broadcast on every offer, ack, drop, fence change and stop *)
    mutable members : member list;
    mutable next_id : int;
    mutable fenced_at : int option;
        (** a peer proved a higher epoch exists: refuse all writes *)
    mutable stopped : bool;
    m_records : Obs.Counter.t;
    m_acks : Obs.Counter.t;
    m_resets : Obs.Counter.t;
    m_dropped : Obs.Counter.t;  (** members dropped (lag, death, overflow) *)
    g_subscribers : Obs.Gauge.t;
  }

  let locked t f =
    Mutex.lock t.mu;
    Fun.protect ~finally:(fun () -> Mutex.unlock t.mu) f

  let drop_locked t m reason =
    if m.alive then begin
      m.alive <- false;
      Obs.Counter.incr t.m_dropped;
      (* wake the sender (sees [alive = false] and exits) and unstick a
         blocked ACK read *)
      (try Unix.shutdown m.fd Unix.SHUTDOWN_ALL with Unix.Unix_error _ -> ());
      Condition.broadcast t.cond;
      Log.info (fun f ->
          f "hub: dropped subscriber #%d (%s): %s" m.id m.peer reason)
    end

  let reap_locked t =
    let gone, kept = List.partition (fun m -> not m.alive) t.members in
    t.members <- kept;
    Obs.Gauge.set t.g_subscribers (float_of_int (List.length kept));
    gone

  (* the commit observer: called once per durable record, in sequence
     order, on the committer (or appender) thread — must never block *)
  let offer t seq payload =
    locked t (fun () ->
        List.iter
          (fun m ->
            if m.alive then
              if Queue.length m.q >= t.queue_capacity then
                drop_locked t m "send queue overflow"
              else Queue.add (seq, payload) m.q)
          t.members;
        ignore (reap_locked t);
        Condition.broadcast t.cond)

  let create ?(ack_timeout = 2.0) ?(queue_capacity = 8192)
      ?(registry = Obs.default) ?(on_fence = fun (_ : int) -> ()) ~epoch store
      =
    let t =
      {
        store;
        epoch;
        on_fence;
        ack_timeout;
        queue_capacity;
        mu = Mutex.create ();
        cond = Condition.create ();
        members = [];
        next_id = 1;
        fenced_at = None;
        stopped = false;
        m_records = Obs.Registry.counter registry "obda_repl_records_sent_total";
        m_acks = Obs.Registry.counter registry "obda_repl_acks_total";
        m_resets = Obs.Registry.counter registry "obda_repl_resets_total";
        m_dropped =
          Obs.Registry.counter registry "obda_repl_subscribers_dropped_total";
        g_subscribers = Obs.Registry.gauge registry "obda_repl_subscribers";
      }
    in
    Store.add_observer store (offer t);
    t

  (** [fence_off t ~epoch] — a peer proved [epoch] exists elsewhere:
      refuse every further write.  The learned epoch is handed to
      [on_fence] {e before} the fence takes effect — and outside the
      hub lock, since the node-side handler persists it under the node
      lock — so a fenced ex-primary that crashes comes back fenced, not
      as a write-accepting primary of a dead timeline.  A persistence
      failure still fences in memory: refusing writes is the safe
      side. *)
  let fence_off t ~epoch =
    let fresh =
      locked t (fun () ->
          match t.fenced_at with Some e when e >= epoch -> false | _ -> true)
    in
    if fresh then begin
      (try t.on_fence epoch
       with e ->
         Log.err (fun f ->
             f "hub: persisting fence at epoch %d failed: %s" epoch
               (Printexc.to_string e)));
      locked t (fun () ->
          match t.fenced_at with
          | Some e when e >= epoch -> ()
          | _ ->
            t.fenced_at <- Some epoch;
            List.iter (fun m -> drop_locked t m "hub fenced") t.members;
            ignore (reap_locked t);
            Condition.broadcast t.cond;
            Log.warn (fun f ->
                f "hub: fenced — epoch %d exists elsewhere" epoch))
    end

  (** [unfence t ~epoch] — a promotion re-adopted this hub under
      [epoch]: a fence recorded at a strictly lower epoch is superseded
      and writes resume.  Without this, a fenced ex-primary promoted to
      a higher epoch would report primary yet refuse every mutation —
      a cluster-wide write outage, since the highest epoch routes all
      writes to it. *)
  let unfence t ~epoch =
    locked t (fun () ->
        match t.fenced_at with
        | Some e when epoch > e ->
          t.fenced_at <- None;
          Condition.broadcast t.cond;
          Log.info (fun f ->
              f "hub: unfenced — re-promoted at epoch %d (was fenced at %d)"
                epoch e)
        | _ -> ())

  let fenced_at t = locked t (fun () -> t.fenced_at)

  (** The write gate, installed as [Service.repl_hooks.gate]: a fenced
      ex-primary refuses mutations {e before} logging anything. *)
  let gate t () =
    match fenced_at t with
    | None -> Result.Ok ()
    | Some e ->
      Result.Error
        (Printf.sprintf "%s; fenced at epoch %d" Service.read_only_prefix e)

  (** The replication barrier, installed as
      [Service.repl_hooks.barrier]: after [seq] is locally durable, hold
      the client's ack until the first subscriber acks it.  No
      subscriber ⇒ immediate (standalone degrades gracefully); ack
      timeout ⇒ drop the laggards and proceed — availability over
      strict semi-sync, the documented tradeoff. *)
  let wait_replicated t seq =
    let deadline = Unix.gettimeofday () +. t.ack_timeout in
    locked t (fun () ->
        let rec wait () =
          match t.fenced_at with
          | Some e ->
            Result.Error
              (Printf.sprintf "%s; fenced at epoch %d" Service.read_only_prefix
                 e)
          | None ->
            let live = List.filter (fun m -> m.alive) t.members in
            if live = [] then Result.Ok ()
            else if List.exists (fun m -> m.acked >= seq) live then begin
              Obs.Counter.incr t.m_acks;
              Result.Ok ()
            end
            else if Unix.gettimeofday () >= deadline then begin
              List.iter (fun m -> drop_locked t m "ack timeout") t.members;
              ignore (reap_locked t);
              Result.Ok ()
            end
            else begin
              Parallel.Timed.wait t.mu t.cond ~until:deadline;
              wait ()
            end
        in
        wait ())

  (* sender thread: drain the member's queue onto its socket; frames
     after the catch-up plan are live records *)
  let sender_loop t m =
    let rec next () =
      locked t (fun () ->
          let rec wait () =
            if (not m.alive) || t.stopped then None
            else if Queue.is_empty m.q then begin
              Condition.wait t.cond t.mu;
              wait ()
            end
            else Some (Queue.take m.q)
          in
          wait ())
      |> function
      | None -> ()
      | Some (seq, payload) -> (
        let lines = payload_lines payload in
        match
          write_frame ~failpoint:"repl.send.record" m.fd
            (Wire.F_record
               { seq; epoch = t.epoch (); count = List.length lines })
            lines
        with
        | () ->
          Obs.Counter.incr t.m_records;
          next ()
        | exception _ -> locked t (fun () -> drop_locked t m "send failed"))
    in
    next ()

  (** [subscribe t ~fence ~epoch ~fd ~reader] — the serve layer hands us
      a connection that issued [REPL SUBSCRIBE].  Sends the reply, ships
      the catch-up plan, then turns the calling thread into the ACK
      reader while a spawned sender streams live records.  Returns when
      the subscription ends (socket death, NACK, drop). *)
  let subscribe t ~fence ~epoch ~fd ~reader =
    let send_reply reply =
      try Io.write_lines fd (Wire.encode_reply reply)
      with Unix.Unix_error _ | Failpoint.Injected _ -> ()
    in
    let my_epoch = t.epoch () in
    if epoch > my_epoch then begin
      (* the subscriber lived under a newer epoch: WE are the stale one *)
      fence_off t ~epoch;
      send_reply
        (Wire.Err
           (Printf.sprintf "stale primary: subscriber epoch %d > ours %d" epoch
              my_epoch))
    end
    else if fenced_at t <> None then
      send_reply (Wire.Err "hub is fenced; refusing subscribers")
    else begin
      (* an older-epoch subscriber may hold a divergent WAL suffix: force
         the RESET path by pretending it has nothing *)
      let eff_fence = if epoch < my_epoch then -1 else fence in
      let m =
        locked t (fun () ->
            let m =
              {
                id = t.next_id;
                peer = Printf.sprintf "fence=%d epoch=%d" fence epoch;
                fd;
                q = Queue.create ();
                acked = fence;
                alive = true;
              }
            in
            t.next_id <- t.next_id + 1;
            m)
      in
      (* plan + registration are atomic w.r.t. the commit stream: every
         record beyond the plan lands in [m.q] *)
      match
        Store.read_tail t.store ~fence:eff_fence ~register:(fun () ->
            locked t (fun () ->
                t.members <- t.members @ [ m ];
                Obs.Gauge.set t.g_subscribers
                  (float_of_int (List.length t.members))))
      with
      | exception Failure e ->
        send_reply (Wire.Err ("cannot compute catch-up plan: " ^ e))
      | plan -> (
        send_reply (Wire.Ok []);
        let ship_backlog () =
          match plan with
          | Store.Tail_records records ->
            List.iter
              (fun (seq, payload) ->
                let lines = payload_lines payload in
                write_frame ~failpoint:"repl.send.record" m.fd
                  (Wire.F_record
                     { seq; epoch = my_epoch; count = List.length lines })
                  lines)
              records
          | Store.Tail_reset { fence; state; records } ->
            Obs.Counter.incr t.m_resets;
            write_frame m.fd
              (Wire.F_reset { fence; state_records = List.length state })
              [];
            List.iter
              (fun payload ->
                let lines = payload_lines payload in
                write_frame m.fd (Wire.F_state { count = List.length lines })
                  lines)
              state;
            List.iter
              (fun (seq, payload) ->
                let lines = payload_lines payload in
                write_frame ~failpoint:"repl.send.record" m.fd
                  (Wire.F_record
                     { seq; epoch = my_epoch; count = List.length lines })
                  lines)
              records
        in
        match ship_backlog () with
        | exception _ -> locked t (fun () -> drop_locked t m "backlog send failed")
        | () ->
          let _sender = Thread.create (fun () -> sender_loop t m) () in
          (* this thread is now the ACK reader *)
          let rec acks () =
            match Io.read_line reader ~max_line with
            | None -> locked t (fun () -> drop_locked t m "subscriber hung up")
            | exception _ ->
              locked t (fun () -> drop_locked t m "ack read failed")
            | Some line -> (
              match Wire.parse_frame line with
              | Result.Ok (Wire.F_ack { seq }) ->
                locked t (fun () ->
                    m.acked <- max m.acked seq;
                    Condition.broadcast t.cond);
                acks ()
              | Result.Ok (Wire.F_nack { epoch }) ->
                fence_off t ~epoch;
                locked t (fun () -> drop_locked t m "nacked: higher epoch")
              | Result.Ok _ | Result.Error _ ->
                locked t (fun () -> drop_locked t m ("bad ack frame: " ^ line)))
          in
          acks ();
          locked t (fun () -> ignore (reap_locked t)))
    end

  (** Highest sequence number acked by any live subscriber, and the
      subscriber count — the status probe reports both. *)
  let ack_state t =
    locked t (fun () ->
        let live = List.filter (fun m -> m.alive) t.members in
        ( List.fold_left (fun acc m -> max acc m.acked) (-1) live,
          List.length live ))

  let stop t =
    locked t (fun () ->
        t.stopped <- true;
        List.iter (fun m -> drop_locked t m "hub stopped") t.members;
        ignore (reap_locked t);
        Condition.broadcast t.cond)
end

(* ---------------------------- subscriber ----------------------------- *)

module Subscriber = struct
  type t = {
    service : Service.t;
    store : Store.t;
    members : string list;  (** endpoints to search for the primary *)
    self : string;  (** our own endpoint — never subscribe to it *)
    epoch : unit -> int;
    adopt_epoch : int -> unit;  (** persist + install a newer epoch *)
    on_primary : string -> unit;
        (** tell the node who we follow (advertised in refusals) *)
    mutable stop_requested : bool;
    mutable thread : Thread.t option;
    mutable conn_fd : Unix.file_descr option;
    mu : Mutex.t;
    m_applied : Obs.Counter.t;
    m_resets : Obs.Counter.t;
    m_reconnects : Obs.Counter.t;
  }

  let locked t f =
    Mutex.lock t.mu;
    Fun.protect ~finally:(fun () -> Mutex.unlock t.mu) f

  (* ----- one live subscription: apply frames until the stream dies --- *)

  let apply_record t ~seq ~payload =
    Failpoint.check "repl.apply.before";
    if seq > Store.last_seq t.store then begin
      Store.append_raw t.store ~seq payload;
      Failpoint.check "repl.apply.after_wal";
      match Store.decode_mutation payload with
      | Result.Error e -> Result.Error ("undecodable replicated record: " ^ e)
      | Result.Ok m -> Service.apply_replicated t.service m
    end
    else Result.Ok ()  (* duplicate delivery: ack again, apply once *)

  let apply_reset t ~fence ~state_payloads =
    Obs.Counter.incr t.m_resets;
    let mutations =
      List.map
        (fun p ->
          match Store.decode_mutation p with
          | Result.Ok m -> m
          | Result.Error e -> failwith ("undecodable state record: " ^ e))
        state_payloads
    in
    (* durable first: a crash after [install_snapshot] recovers into the
       reset state; then rebuild the in-memory sessions from scratch *)
    Store.install_snapshot t.store ~fence mutations;
    Service.reset_sessions t.service;
    match Service.restore t.service mutations with
    | Result.Ok _ -> ()
    | Result.Error e -> failwith ("reset replay failed: " ^ e)

  let stream t conn_fd reader =
    let send frame =
      Failpoint.check "repl.ack.before";
      write_frame conn_fd frame []
    in
    let rec loop () =
      if t.stop_requested then ()
      else
        match Io.read_line reader ~max_line with
        | None -> ()
        | Some line -> (
          match Wire.parse_frame line with
          | Result.Error e -> Log.warn (fun f -> f "subscriber: %s" e)
          | Result.Ok (Wire.F_record { seq; epoch; count }) -> (
            match Io.read_lines reader ~max_line count with
            | None -> ()
            | Some lines ->
              let my_epoch = t.epoch () in
              if epoch < my_epoch then
                (* a fenced ex-primary is still streaming: refuse *)
                send (Wire.F_nack { epoch = my_epoch })
              else begin
                if epoch > my_epoch then t.adopt_epoch epoch;
                match
                  apply_record t ~seq ~payload:(String.concat "\n" lines)
                with
                | Result.Ok () ->
                  Obs.Counter.incr t.m_applied;
                  send (Wire.F_ack { seq });
                  loop ()
                | Result.Error e ->
                  Log.err (fun f -> f "subscriber: apply seq %d: %s" seq e)
              end)
          | Result.Ok (Wire.F_reset { fence; state_records }) -> (
            let rec read_state k acc =
              if k = 0 then Some (List.rev acc)
              else
                match Io.read_line reader ~max_line with
                | None -> None
                | Some line -> (
                  match Wire.parse_frame line with
                  | Result.Ok (Wire.F_state { count }) -> (
                    match Io.read_lines reader ~max_line count with
                    | None -> None
                    | Some lines ->
                      read_state (k - 1) (String.concat "\n" lines :: acc))
                  | _ -> None)
            in
            match read_state state_records [] with
            | None -> ()
            | Some payloads ->
              apply_reset t ~fence ~state_payloads:payloads;
              send (Wire.F_ack { seq = fence });
              loop ())
          | Result.Ok (Wire.F_state _ | Wire.F_ack _ | Wire.F_nack _) ->
            Log.warn (fun f -> f "subscriber: unexpected frame %S" line))
    in
    loop ()

  (* ----- connection management: find the primary, subscribe, retry --- *)

  let try_subscribe t endpoint =
    match Client.dial endpoint with
    | Result.Error _ -> false
    | Result.Ok conn ->
      let finished = ref false in
      Fun.protect
        ~finally:(fun () ->
          locked t (fun () -> t.conn_fd <- None);
          if not !finished then
            try Unix.close conn.Client.fd with Unix.Unix_error _ -> ())
        (fun () ->
          locked t (fun () -> t.conn_fd <- Some conn.Client.fd);
          let exchange req = Client.exchange_conn conn req in
          match exchange (Wire.Hello 3) with
          | Result.Ok (Wire.Ok _) -> (
            match
              exchange
                (Wire.Repl_subscribe
                   { fence = Store.last_seq t.store; epoch = t.epoch () })
            with
            | Result.Ok (Wire.Ok _) ->
              t.on_primary endpoint;
              Obs.Counter.incr t.m_reconnects;
              Log.info (fun f -> f "subscriber: following %s" endpoint);
              stream t conn.Client.fd conn.Client.reader;
              finished := true;
              (try Unix.close conn.Client.fd with Unix.Unix_error _ -> ());
              true
            | _ -> false)
          | _ -> false)

  let run t =
    let attempt = ref 0 in
    while not t.stop_requested do
      let connected =
        match
          Client.find_primary (List.filter (fun e -> e <> t.self) t.members)
        with
        | None -> false
        | Some ep -> (
          (* injected faults and socket deaths end the subscription,
             never the loop: back off and re-resolve the primary *)
          try try_subscribe t ep
          with e ->
            Log.warn (fun f ->
                f "subscriber: stream to %s died: %s" ep (Printexc.to_string e));
            false)
      in
      if connected then attempt := 0 else incr attempt;
      if not t.stop_requested then
        Thread.delay
          (Client.backoff ~base_delay:0.05 ~max_delay:1.0 ~jitter:0.25
             (min !attempt 6))
    done

  let start ?(registry = Obs.default) ~service ~store ~members ~self ~epoch
      ~adopt_epoch ~on_primary () =
    let t =
      {
        service;
        store;
        members;
        self;
        epoch;
        adopt_epoch;
        on_primary;
        stop_requested = false;
        thread = None;
        conn_fd = None;
        mu = Mutex.create ();
        m_applied =
          Obs.Registry.counter registry "obda_repl_records_applied_total";
        m_resets = Obs.Registry.counter registry "obda_repl_resets_applied_total";
        m_reconnects =
          Obs.Registry.counter registry "obda_repl_subscribe_attempts_total";
      }
    in
    t.thread <- Some (Thread.create run t);
    t

  (** Stop following: used by promotion.  Severs the stream and joins
      the loop thread — when this returns no further record will be
      applied. *)
  let stop t =
    t.stop_requested <- true;
    locked t (fun () ->
        match t.conn_fd with
        | Some fd -> (
          try Unix.shutdown fd Unix.SHUTDOWN_ALL with Unix.Unix_error _ -> ())
        | None -> ());
    match t.thread with
    | Some th ->
      Thread.join th;
      t.thread <- None
    | None -> ()
end
