(** The write-ahead log: checksummed, length-prefixed records with
    fsync-on-commit.

    On-disk framing, per record:

    {v
      +--------+--------+--------+----------------+
      | len u32| seq u64| crc u32| payload (len B)|
      +--------+--------+--------+----------------+
    v}

    All integers big-endian; [crc] is CRC-32 over the seq field and the
    payload, so neither a torn payload nor a corrupted sequence number
    can pass.  [len] is {e not} covered — it doesn't need to be: a
    corrupted length either points past the end of the file (scanned as
    a torn tail) or frames a region whose CRC fails.

    Recovery semantics ({!scan}):

    - a record that doesn't fit in the remaining bytes, or whose CRC
      fails {e at the very tail} of the file, is a {e torn tail} — the
      incomplete leftover of a crashed append.  It and everything after
      it (there is nothing after it) are dropped, and reopening the
      appender truncates the file back to the last good record;
    - a CRC failure with more bytes {e after} the framed record is
      {e mid-log corruption}: bits rotted under an fsync'd prefix.
      That's not a crash artifact, and silently dropping acknowledged
      records would serve divergent answers — so {!scan} refuses loudly
      with {!Corrupt}.

    Writing has one path, {!commit}: direct callers and the {!Group}
    committer alike append a batch of records with one write and one
    fsync, and a refused commit cuts the file back to the last durable
    record before the error surfaces. *)

type entry = { seq : int; payload : string }

exception Corrupt of string

type scan = {
  entries : entry list;
  valid_bytes : int;  (** offset of the first non-replayable byte *)
  torn_bytes : int;   (** trailing bytes dropped as a torn tail; 0 = clean *)
}

let header_size = 16

(* ---------------------------- en/decoding ---------------------------- *)

let u32_at bytes off = Int32.to_int (Bytes.get_int32_be bytes off) land 0xFFFFFFFF

(* frame one record into [buf] at [off]; returns the offset after it *)
let encode_at buf off (seq, payload) =
  let len = String.length payload in
  Bytes.set_int32_be buf off (Int32.of_int len);
  Bytes.set_int64_be buf (off + 4) (Int64.of_int seq);
  Bytes.blit_string payload 0 buf (off + header_size) len;
  (* over seq + payload, skipping the crc field between them — must
     mirror [crc_of_region] exactly *)
  let crc =
    Crc32.update (Crc32.update 0 buf ~pos:(off + 4) ~len:8) buf
      ~pos:(off + header_size) ~len
  in
  Bytes.set_int32_be buf (off + 12) (Int32.of_int crc);
  off + header_size + len

(** [encode_batch records] — the framed [(seq, payload)] records, back
    to back: the bytes of one WAL append, or of a whole snapshot. *)
let encode_batch records =
  let size =
    List.fold_left
      (fun n (_, payload) -> n + header_size + String.length payload)
      0 records
  in
  let buf = Bytes.create size in
  ignore (List.fold_left (encode_at buf) 0 records);
  buf

(* crc over seq+payload, skipping the crc field between them *)
let crc_of_region bytes off len =
  let c = Crc32.update 0 bytes ~pos:(off + 4) ~len:8 in
  Crc32.update c bytes ~pos:(off + header_size) ~len

let scan bytes =
  let size = Bytes.length bytes in
  let torn off acc =
    { entries = List.rev acc; valid_bytes = off; torn_bytes = size - off }
  in
  let rec go off acc =
    if off = size then
      { entries = List.rev acc; valid_bytes = off; torn_bytes = 0 }
    else if size - off < header_size then torn off acc
    else
      let len = u32_at bytes off in
      if len > size - off - header_size then torn off acc
      else begin
        let seq = Int64.to_int (Bytes.get_int64_be bytes (off + 4)) in
        let stored = u32_at bytes (off + 12) in
        let actual = crc_of_region bytes off len in
        if stored <> actual then
          if off + header_size + len = size then torn off acc
          else
            raise
              (Corrupt
                 (Printf.sprintf
                    "bad CRC at offset %d (framed seq %d, %d bytes follow): \
                     mid-log corruption, refusing to replay"
                    off seq
                    (size - off - header_size - len)))
        else
          let payload = Bytes.sub_string bytes (off + header_size) len in
          go (off + header_size + len) ({ seq; payload } :: acc)
      end
  in
  go 0 []

(** [scan_file path] — {!scan} of the file's contents; a missing file is
    an empty log.  @raise Corrupt on mid-log corruption. *)
let scan_file path =
  match Unix.openfile path [ Unix.O_RDONLY ] 0 with
  | exception Unix.Unix_error (Unix.ENOENT, _, _) ->
    { entries = []; valid_bytes = 0; torn_bytes = 0 }
  | fd ->
    Fun.protect
      ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
      (fun () -> scan (Io.read_all fd))

(* ------------------------------ appender ----------------------------- *)

type t = {
  fd : Unix.file_descr;
  fsync_on_commit : bool;
  mutable committed : int;  (** offset after the last durable record *)
  mutable torn : bool;
      (** a failed commit could not cut the file back to [committed]:
          the next {!commit} or {!close} must, before anything else *)
  m_appends : Obs.Counter.t;
  m_fsyncs : Obs.Counter.t;
  m_bytes : Obs.Counter.t;
}

(** [open_append ~registry ~path ~valid_bytes ()] opens the log for
    appending, first truncating it to [valid_bytes] — recovery's way of
    physically dropping a torn tail so it can never resurface. *)
let open_append ?(fsync_on_commit = true) ~registry ~path ~valid_bytes () =
  let fd = Unix.openfile path [ Unix.O_WRONLY; Unix.O_CREAT ] 0o644 in
  Unix.ftruncate fd valid_bytes;
  ignore (Unix.lseek fd 0 Unix.SEEK_END);
  {
    fd;
    fsync_on_commit;
    committed = valid_bytes;
    torn = false;
    m_appends = Obs.Registry.counter registry "obda_wal_appends_total";
    m_fsyncs = Obs.Registry.counter registry "obda_wal_fsyncs_total";
    m_bytes = Obs.Registry.counter registry "obda_wal_bytes_written_total";
  }

(* drop every byte past the last durable record *)
let cut t =
  Unix.ftruncate t.fd t.committed;
  ignore (Unix.lseek t.fd t.committed Unix.SEEK_SET);
  t.torn <- false

(** [commit t records] — write [(seq, payload)] records with one append
    and (by default) one fsync: once [commit] returns, all of them
    survive [kill -9].  Failpoints, once per call: [wal.append.before]
    (nothing written), [wal.append.write] (partial-write site),
    [wal.append.before_fsync] (written, durability not yet guaranteed),
    [wal.append.after_fsync] (durable, not yet acknowledged).  On any
    failure none of the records is acknowledged: the file is cut back to
    the last durable record at once — or, if even that fails, marked
    [torn] for the next commit or {!close} to cut — and the failure is
    re-raised, so a refused record can never come back on replay. *)
let commit t records =
  try
    Failpoint.check "wal.append.before";
    if t.torn then cut t;
    let bytes = encode_batch records in
    Io.write_all ~failpoint:"wal.append.write" t.fd bytes ~pos:0
      ~len:(Bytes.length bytes);
    Obs.Counter.incr ~by:(List.length records) t.m_appends;
    Obs.Counter.incr ~by:(Bytes.length bytes) t.m_bytes;
    if t.fsync_on_commit then begin
      Io.fsync ~failpoint:"wal.append.before_fsync" t.fd;
      Obs.Counter.incr t.m_fsyncs
    end;
    Failpoint.check "wal.append.after_fsync";
    t.committed <- t.committed + Bytes.length bytes
  with e ->
    t.torn <- true;
    (try cut t with _ -> ());
    raise e

(** [reset t] empties the log — called once a snapshot has made its
    records redundant.  The truncation is fsync'd: a crash right after
    must not resurrect pre-snapshot records with stale sequence
    numbers. *)
let reset t =
  t.committed <- 0;
  cut t;
  Io.fsync t.fd;
  Obs.Counter.incr t.m_fsyncs

let close t =
  (try
     if t.torn then cut t;
     Io.fsync t.fd;
     Obs.Counter.incr t.m_fsyncs
   with Unix.Unix_error _ -> ());
  try Unix.close t.fd with Unix.Unix_error _ -> ()

(* ---------------------------- group commit --------------------------- *)

(** The group committer: concurrent appenders enqueue records and block;
    a dedicated committer thread drains the queue, {!commit}s the whole
    batch — one append, {e one} fsync — then releases every waiter in
    the batch at once, amortizing the fsync (the dominant cost of
    durability) across however many sessions were writing concurrently.

    The batching window is {e self-clocked} rather than timer-driven:
    while batch [N]'s write+fsync is in flight, arrivals accumulate into
    batch [N+1], so the accumulation window is naturally the duration of
    one commit (≈ the device's fsync latency) and never longer.  A fixed
    timer (say 2 ms) would be strictly worse for blocked producers: a
    solo appender would pay the timer on every record, and a saturated
    group would be throttled to [max_batch / timer].  [max_batch]
    (default 64) bounds the batch size so one bad batch never tears more
    than a window's worth of records.

    A failed {!commit} fails {e every} record in the batch (none was
    acknowledged) and later batches proceed. *)
module Group = struct
  type outcome = Pending | Committed | Failed of exn

  type ticket = { mutable outcome : outcome; sem : Semaphore.Binary.t }
  (* per-ticket semaphore: releasing a batch must not force every
     producer back through [gm] (a condvar wake requeues all waiters
     onto the mutex, so they wake one by one behind each other);
     acquiring a private semaphore wakes each producer independently *)

  type group = {
    wal : t;
    gm : Mutex.t;
    arrived : Condition.t;   (* signalled on enqueue / stop *)
    released : Condition.t;  (* broadcast when a batch resolves *)
    mutable queue : (int * string * ticket) list;  (* newest first *)
    mutable in_flight : int;
    mutable stopping : bool;
    mutable thread : Thread.t option;
    mutable last_batch : int;
        (** previous batch's size — the harvest target under steady load *)
    max_batch : int;
    on_commit : (int * string) list -> unit;
        (** fired on the committer thread after each durable batch, in
            sequence order, before the batch's waiters are released —
            the store's commit notification *)
    m_group_size : Obs.Histogram.t;
    m_group_commits : Obs.Counter.t;
  }

  let rec split_at n = function
    | x :: rest when n > 0 ->
      let a, b = split_at (n - 1) rest in
      (x :: a, b)
    | rest -> ([], rest)

  let rec run g =
    Mutex.lock g.gm;
    while g.queue = [] && not g.stopping do
      Condition.wait g.arrived g.gm
    done;
    if g.queue = [] then Mutex.unlock g.gm (* stopping, queue drained *)
    else begin
      (* harvest shaping, still with no timer: producers released by
         the previous batch are runnable but must re-acquire the
         runtime lock one by one before they can re-enqueue, so the
         queue refills gradually.  Yield the scheduler to them until
         the queue reaches the previous batch's size (the best
         estimate of how many writers are in steady state), with a
         hard cap on yields so a shrinking workload converges.  An
         idle queue still parks in [Condition.wait] above, and a solo
         appender pays a few no-op yields (microseconds) against a
         ~100µs fsync. *)
      let target = min g.max_batch (1 + max 1 g.last_batch) in
      let rounds = ref 0 in
      while List.compare_length_with g.queue target < 0 && !rounds < 4 do
        incr rounds;
        Mutex.unlock g.gm;
        for _ = 1 to 4 do
          Thread.yield ()
        done;
        Mutex.lock g.gm
      done;
      let batch, rest = split_at g.max_batch (List.rev g.queue) in
      g.last_batch <- List.length batch;
      g.queue <- List.rev rest;
      g.in_flight <- List.length batch;
      Mutex.unlock g.gm;
      let records = List.map (fun (seq, payload, _) -> (seq, payload)) batch in
      let outcome =
        match commit g.wal records with
        | () ->
          (* observers run before waiters are released: when an append
             returns, its record is already in the commit stream *)
          (try g.on_commit records with _ -> ());
          Committed
        | exception e -> Failed e
      in
      Obs.Histogram.observe g.m_group_size (float_of_int (List.length batch));
      Obs.Counter.incr g.m_group_commits;
      List.iter
        (fun (_, _, tk) ->
          tk.outcome <- outcome;
          Semaphore.Binary.release tk.sem)
        batch;
      Mutex.lock g.gm;
      g.in_flight <- 0;
      Condition.broadcast g.released;  (* flush waiters *)
      Mutex.unlock g.gm;
      run g
    end

  (** [start ~registry ~on_commit wal] — spawn the committer over an
      opened appender. *)
  let start ?(max_batch = 64) ~registry ~on_commit wal =
    let g =
      {
        on_commit;
        wal;
        gm = Mutex.create ();
        arrived = Condition.create ();
        released = Condition.create ();
        queue = [];
        in_flight = 0;
        stopping = false;
        thread = None;
        last_batch = 1;
        max_batch;
        m_group_size =
          Obs.Registry.histogram registry ~buckets:Obs.Histogram.size_buckets
            "obda_wal_group_size";
        m_group_commits =
          Obs.Registry.counter registry "obda_wal_group_commits_total";
      }
    in
    g.thread <- Some (Thread.create run g);
    g

  (** [enqueue g ~seq payload] — hand one record to the committer.  The
      caller must serialize sequence assignment and enqueueing (the
      store does both under its own lock) so file order matches
      sequence order. *)
  let enqueue g ~seq payload =
    let tk = { outcome = Pending; sem = Semaphore.Binary.make false } in
    Mutex.lock g.gm;
    if g.stopping then begin
      Mutex.unlock g.gm;
      invalid_arg "Wal.Group.enqueue: committer is stopped"
    end;
    g.queue <- (seq, payload, tk) :: g.queue;
    Condition.signal g.arrived;
    Mutex.unlock g.gm;
    tk

  (** [await tk] — block until the ticket's batch commits.  Raises the
      batch's failure (the record was not made durable and must be
      rejected, exactly like a failed {!commit}). *)
  let await tk =
    Semaphore.Binary.acquire tk.sem;
    match tk.outcome with
    | Committed -> ()
    | Failed e -> raise e
    | Pending -> assert false

  (** [flush g] — wait until the queue is empty and no batch is in
      flight.  Meaningful only while the caller prevents new enqueues
      (the store holds its lock): the snapshot path quiesces the
      committer this way before resetting the WAL. *)
  let flush g =
    Mutex.lock g.gm;
    while g.queue <> [] || g.in_flight > 0 do
      Condition.wait g.released g.gm
    done;
    Mutex.unlock g.gm

  (** [stop g] — drain the queue, stop the committer, join it. *)
  let stop g =
    Mutex.lock g.gm;
    g.stopping <- true;
    Condition.signal g.arrived;
    Mutex.unlock g.gm;
    match g.thread with None -> () | Some th -> Thread.join th
end
