(** The durable session store: one directory holding a snapshot and a
    write-ahead log of session mutations.

    {v
      <data-dir>/
        wal           checksummed mutation records (Wal framing)
        snapshot      compacted state, written via snapshot.tmp + rename
        snapshot.tmp  transient; a leftover one is deleted on open
    v}

    Mutations are logged {e before} they are applied and acknowledged:
    an acknowledged mutation is always on fsync'd disk.  Each carries a
    store-wide sequence number.  A snapshot is a compacted replay
    prefix — the mutation records that rebuild the state as of sequence
    [S] — written to a temp file, fsync'd, and atomically [rename]d into
    place; only then is the WAL emptied.  A crash between rename and
    reset is harmless: recovery replays the snapshot and then only WAL
    records with [seq > S].

    Every append — {!append} on a primary, {!append_raw} on a replica —
    takes one path: a sequence number is assigned under the store lock,
    then {!Wal.commit} writes and fsyncs it, either at once under the
    lock (the direct scheduler, the default) or batched with concurrent
    appends on the group committer's thread ([~group_commit]).  Only
    the commit notification that follows advances {!last_seq}, the
    replication fence: a refused append is cut out of the WAL, never
    replays, and moves no fence.

    Recovery ({!open_dir}) refuses loudly on mid-log corruption and on
    any damage to the snapshot (which, being rename-installed, is never
    legitimately torn); a torn WAL tail — the signature of a crashed
    append — is dropped, logged, and counted in
    [obda_wal_truncations_total]. *)

let log_src = Logs.Src.create "durable" ~doc:"WAL + snapshot session store"

module Log = (val Logs.src_log log_src : Logs.LOG)

(* ----------------------------- mutations ----------------------------- *)

(** The replayable session mutations.  [kind] is the wire LOAD kind
    (TBOX / MAPPINGS / ABOX / FACTS) kept as text — the store frames and
    persists; the service interprets. *)
type mutation =
  | Load of { session : string; kind : string; payload : string list }
  | Prepare of { session : string; name : string; query : string }

let token_ok s =
  s <> ""
  && String.for_all (fun c -> c <> ' ' && c <> '\n' && c <> '\r') s

let encode_mutation m =
  let header =
    match m with
    | Load { session; kind; payload = _ } ->
      if not (token_ok session && token_ok kind) then
        invalid_arg "Store: malformed session or kind token";
      Printf.sprintf "L %s %s" session kind
    | Prepare { session; name; query } ->
      if not (token_ok session && token_ok name) then
        invalid_arg "Store: malformed session or name token";
      if String.contains query '\n' then
        invalid_arg "Store: prepared query contains a newline";
      Printf.sprintf "P %s %s" session name
  in
  match m with
  | Load { payload; _ } -> String.concat "\n" (header :: payload)
  | Prepare { query; _ } -> header ^ "\n" ^ query

let decode_mutation s =
  match String.split_on_char '\n' s with
  | [] -> Result.Error "empty mutation record"
  | header :: rest -> (
    match String.split_on_char ' ' header with
    | [ "L"; session; kind ] -> Result.Ok (Load { session; kind; payload = rest })
    | [ "P"; session; name ] -> (
      match rest with
      | [ query ] -> Result.Ok (Prepare { session; name; query })
      | _ -> Result.Error "malformed PREPARE record")
    | _ -> Result.Error (Printf.sprintf "unrecognized mutation header %S" header))

(* ------------------------------- store ------------------------------- *)

type t = {
  dir : string;
  mu : Mutex.t;
      (** guards sequence assignment, the snapshot, and the WAL on the
          direct scheduler *)
  wal : Wal.t;
  mutable group : Wal.Group.group option;
      (** the group scheduler, set once by {!open_dir}: sequence numbers
          are assigned and records enqueued under [mu], but the commit
          happens on the committer thread, batched with whatever other
          sessions were appending concurrently.  [None] is the direct
          scheduler: the appender commits under [mu] itself. *)
  snapshot_every : int option;
  snapshot_bytes : int option;
  mutable next_seq : int;
      (** the next sequence number to assign; a refused append leaves a
          gap *)
  last_seq : int Atomic.t;
      (** the highest durable sequence number; only {!notify} advances
          it *)
  since_snapshot : int Atomic.t;
  since_snapshot_bytes : int Atomic.t;
      (** durable WAL records and bytes since the last snapshot, the
          compaction triggers; {!notify} advances them too *)
  mutable observers : (int -> string -> unit) list;
      (** commit observers, fired by {!notify}.  The replication hub
          taps the commit stream here. *)
  m_snapshots : Obs.Counter.t;
}

type recovery = {
  mutations : mutation list;  (** snapshot records, then the WAL tail *)
  snapshot_records : int;
  wal_records : int;
  truncated_bytes : int;  (** [> 0] when a torn WAL tail was dropped *)
  seconds : float;
}

let dir t = t.dir
let last_seq t = Atomic.get t.last_seq

let wal_path dir = Filename.concat dir "wal"
let snapshot_path dir = Filename.concat dir "snapshot"
let snapshot_tmp_path dir = Filename.concat dir "snapshot.tmp"

let snapshot_header_prefix = "S "

(* snapshot file → (fence seq, mutations); None when absent *)
let read_snapshot path =
  match Wal.scan_file path with
  | exception Wal.Corrupt m ->
    Result.Error (Printf.sprintf "snapshot %s: %s" path m)
  | { Wal.torn_bytes; _ } when torn_bytes > 0 ->
    (* snapshots are rename-installed whole; a short one is corruption,
       not a crash artifact *)
    Result.Error
      (Printf.sprintf "snapshot %s: %d trailing bytes do not frame a record"
         path torn_bytes)
  | { Wal.entries = []; _ } -> Result.Ok None
  | { Wal.entries = header :: records; _ } -> (
    let p = header.Wal.payload in
    let plen = String.length snapshot_header_prefix in
    if String.length p <= plen || String.sub p 0 plen <> snapshot_header_prefix
    then Result.Error (Printf.sprintf "snapshot %s: bad header record" path)
    else
      match int_of_string_opt (String.sub p plen (String.length p - plen)) with
      | None -> Result.Error (Printf.sprintf "snapshot %s: bad fence seq" path)
      | Some fence ->
        let rec decode acc = function
          | [] -> Result.Ok (Some (fence, List.rev acc))
          | e :: rest -> (
            match decode_mutation e.Wal.payload with
            | Result.Ok m -> decode (m :: acc) rest
            | Result.Error msg ->
              Result.Error (Printf.sprintf "snapshot %s: %s" path msg))
        in
        decode [] records)

(* the commit notification, fired once per durable batch in sequence
   order — under [mu] on the direct scheduler, on the committer thread
   on the group one (without [mu]: a quiescing snapshot holds it while
   it waits the batch out).  [last_seq] and the since-snapshot counts
   advance here and only here, so a refused append moves neither the
   replication fence nor the compaction triggers. *)
let notify t records =
  List.iter
    (fun (seq, payload) ->
      Atomic.set t.last_seq seq;
      Atomic.incr t.since_snapshot;
      ignore
        (Atomic.fetch_and_add t.since_snapshot_bytes
           (Wal.header_size + String.length payload));
      List.iter (fun f -> try f seq payload with _ -> ()) t.observers)
    records

(** [open_dir ?registry ?fsync_on_commit ?group_commit ?snapshot_every
    ?snapshot_bytes dir] — create or recover the store.  On success,
    returns the opened store (WAL truncated past any torn tail, ready
    to append) and the recovery record whose [mutations] the caller
    must replay, in order, into a fresh service {e before} attaching
    the store.  [snapshot_every] arms {!want_snapshot} after that many
    WAL appends; [snapshot_bytes] arms it after that many WAL bytes
    (whichever trigger fires first wins).  [group_commit] picks the
    group scheduler: a dedicated {!Wal.Group} committer batches
    concurrent appends under one fsync — same durability guarantee
    (nothing is acknowledged before its batch is fsync'd), amortized
    cost. *)
let open_dir ?(registry = Obs.default) ?(fsync_on_commit = true)
    ?(group_commit = false) ?snapshot_every ?snapshot_bytes dir =
  let t0 = Unix.gettimeofday () in
  match
    (try if not (Sys.file_exists dir) then Unix.mkdir dir 0o755 with
     | Unix.Unix_error (Unix.EEXIST, _, _) -> ())
  with
  | exception Unix.Unix_error (e, _, _) ->
    Result.Error
      (Printf.sprintf "cannot create data dir %s: %s" dir (Unix.error_message e))
  | () -> (
    (try Sys.remove (snapshot_tmp_path dir) with Sys_error _ -> ());
    match read_snapshot (snapshot_path dir) with
    | Result.Error _ as e -> e
    | Result.Ok snap -> (
      let fence, snap_mutations =
        match snap with None -> (0, []) | Some (f, ms) -> (f, ms)
      in
      match Wal.scan_file (wal_path dir) with
      | exception Wal.Corrupt m ->
        Result.Error (Printf.sprintf "wal %s: %s" (wal_path dir) m)
      | { Wal.entries; valid_bytes; torn_bytes } -> (
        let live = List.filter (fun e -> e.Wal.seq > fence) entries in
        let rec decode acc = function
          | [] -> Result.Ok (List.rev acc)
          | e :: rest -> (
            match decode_mutation e.Wal.payload with
            | Result.Ok m -> decode (m :: acc) rest
            | Result.Error msg ->
              Result.Error
                (Printf.sprintf "wal %s: record seq %d: %s" (wal_path dir)
                   e.Wal.seq msg))
        in
        match decode [] live with
        | Result.Error _ as e -> e
        | Result.Ok wal_mutations ->
          let m_truncations =
            Obs.Registry.counter registry "obda_wal_truncations_total"
          in
          if torn_bytes > 0 then begin
            Obs.Counter.incr m_truncations;
            Log.warn (fun m ->
                m "wal %s: dropped %d-byte torn tail at offset %d"
                  (wal_path dir) torn_bytes valid_bytes)
          end;
          let last_wal_seq =
            List.fold_left (fun acc e -> max acc e.Wal.seq) fence entries
          in
          let wal =
            Wal.open_append ~fsync_on_commit ~registry ~path:(wal_path dir)
              ~valid_bytes ()
          in
          let mutations = snap_mutations @ wal_mutations in
          Obs.Counter.incr ~by:(List.length mutations)
            (Obs.Registry.counter registry "obda_wal_replayed_records_total");
          let seconds = Unix.gettimeofday () -. t0 in
          Obs.Histogram.observe
            (Obs.Registry.histogram registry "obda_recovery_seconds")
            seconds;
          let t =
            {
              dir;
              mu = Mutex.create ();
              wal;
              group = None;
              snapshot_every;
              snapshot_bytes;
              next_seq = last_wal_seq + 1;
              last_seq = Atomic.make last_wal_seq;
              since_snapshot = Atomic.make (List.length wal_mutations);
              since_snapshot_bytes = Atomic.make valid_bytes;
              observers = [];
              m_snapshots = Obs.Registry.counter registry "obda_snapshots_total";
            }
          in
          if group_commit then
            t.group <-
              Some (Wal.Group.start ~registry ~on_commit:(notify t) wal);
          Result.Ok
            ( t,
              {
                mutations;
                snapshot_records = List.length snap_mutations;
                wal_records = List.length wal_mutations;
                truncated_bytes = torn_bytes;
                seconds;
              } ))))

let locked t f =
  Mutex.lock t.mu;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.mu) f

(** [add_observer t f] — register a commit observer.  [f seq payload]
    fires once per record {e after} it is durable, in sequence order:
    under the store lock on the direct scheduler, on the committer
    thread on the group one (before the append's waiter is released, so
    by the time an acknowledged append returns the record has already
    been observed). *)
let add_observer t f = locked t (fun () -> t.observers <- t.observers @ [ f ])

(* the one append path: sequence assignment under [mu], then the
   commit — by the caller under [mu] on the direct scheduler, or
   enqueued under [mu] (so file order matches sequence order) and
   awaited outside it on the group scheduler, which is what lets
   concurrent sessions share one fsync.  A refused commit raises and
   leaves a gap in [next_seq] that [last_seq] never covers; recovery
   filters on [seq > fence], never on density, and tolerates it. *)
let append_at t ?seq payload =
  let seq, ticket =
    locked t (fun () ->
        let seq = Option.value seq ~default:t.next_seq in
        t.next_seq <- max t.next_seq (seq + 1);
        match t.group with
        | None ->
          Wal.commit t.wal [ (seq, payload) ];
          notify t [ (seq, payload) ];
          (seq, None)
        | Some g -> (seq, Some (Wal.Group.enqueue g ~seq payload)))
  in
  Option.iter Wal.Group.await ticket;
  seq

(** [append t m] — assign the next sequence number, frame, write, fsync.
    When this returns, [m] is durable; only then may the caller apply
    and acknowledge it.  Returns the assigned sequence number (the
    replication barrier waits on it).  Raises {!Failpoint.Injected} or
    [Unix.Unix_error] on (injected or real) I/O failure — the mutation
    must then be rejected, not applied, and it never replays. *)
let append t m = append_at t (encode_mutation m)

(** [append_raw t ~seq payload] — append an already-encoded record under
    an {e explicit} sequence number: the replica apply path, which must
    preserve the primary's numbering so the replication fence is simply
    {!last_seq} and survives restarts for free.  [seq] must exceed
    {!last_seq} (gaps are fine — the primary's failed appends leave
    them); a stale or duplicate [seq] is rejected loudly.  A refused
    append leaves {!last_seq} where it was. *)
let append_raw t ~seq payload =
  if seq <= last_seq t then
    invalid_arg
      (Printf.sprintf "Store.append_raw: seq %d not beyond last seq %d" seq
         (last_seq t));
  ignore (append_at t ~seq payload)

(** [want_snapshot t] — true once either compaction trigger has fired
    ([snapshot_every] appends, or [snapshot_bytes] WAL bytes, since the
    last snapshot). *)
let want_snapshot t =
  match (t.snapshot_every, t.snapshot_bytes) with
  | None, None -> false
  | every, bytes ->
    (match every with
     | Some every -> Atomic.get t.since_snapshot >= every
     | None -> false)
    || match bytes with
       | Some limit -> Atomic.get t.since_snapshot_bytes >= limit
       | None -> false

(* wait out the group committer's queue and in-flight batch: with [mu]
   held nothing new can be enqueued, so afterwards every assigned
   sequence number is either durable (at most [last_seq]) or refused,
   and no batch write can race a [Wal.reset] *)
let quiesce t = Option.iter Wal.Group.flush t.group

(* install [mutations] as the snapshot at [fence], then empty the WAL;
   caller holds [mu] and has quiesced *)
let write_snapshot_locked t ~fence mutations =
  Failpoint.check "snapshot.before_write";
  let bytes =
    Wal.encode_batch
      ((0, snapshot_header_prefix ^ string_of_int fence)
      :: List.mapi (fun i m -> (i + 1, encode_mutation m)) mutations)
  in
  let tmp = snapshot_tmp_path t.dir in
  let fd =
    Unix.openfile tmp [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644
  in
  Fun.protect
    ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
    (fun () ->
      Io.write_all ~failpoint:"snapshot.write" fd bytes ~pos:0
        ~len:(Bytes.length bytes);
      Io.fsync ~failpoint:"snapshot.before_fsync" fd);
  Failpoint.check "snapshot.before_rename";
  Unix.rename tmp (snapshot_path t.dir);
  Io.fsync_dir t.dir;
  Failpoint.check "snapshot.after_rename";
  Wal.reset t.wal;
  Atomic.set t.since_snapshot 0;
  Atomic.set t.since_snapshot_bytes 0;
  Obs.Counter.incr t.m_snapshots;
  Log.info (fun m ->
      m "snapshot: %d record(s) at fence seq %d, wal reset"
        (List.length mutations) fence)

(** [write_snapshot t mutations] — install [mutations] (a compacted
    replay of the {e entire} durable state, typically produced under
    every session lock so no append can race) as the new snapshot at
    fence {!last_seq}, then empty the WAL.  Temp-file + [rename] keeps
    the old snapshot intact up to the atomic switch; the directory is
    fsync'd so the rename itself survives a crash. *)
let write_snapshot t mutations =
  locked t (fun () ->
      quiesce t;
      write_snapshot_locked t ~fence:(last_seq t) mutations)

(** [install_snapshot t ~fence mutations] — replace the entire durable
    state with [mutations] compacted at the primary's [fence]: the
    replica's RESET catch-up path.  Any stale WAL suffix (records a
    fenced ex-primary appended but never replicated) is discarded with
    the reset; the next {!append_raw} continues from [fence + 1]. *)
let install_snapshot t ~fence mutations =
  locked t (fun () ->
      quiesce t;
      write_snapshot_locked t ~fence mutations;
      t.next_seq <- fence + 1;
      Atomic.set t.last_seq fence)

(** The catch-up plan handed to a freshly subscribed replica. *)
type tail =
  | Tail_records of (int * string) list
      (** the subscriber's fence is covered by our WAL: ship exactly the
          records with [seq > fence], then go live *)
  | Tail_reset of {
      fence : int;  (** our snapshot fence *)
      state : string list;  (** compacted records rebuilding seq ≤ fence *)
      records : (int * string) list;  (** WAL tail beyond the snapshot *)
    }
      (** the subscriber is behind our snapshot (or lived under an older
          epoch): it must wipe and rebuild from the compacted state *)

(** [read_tail t ~fence ~register] — compute the catch-up plan for a
    subscriber that has everything up to [fence], atomically with
    [register ()]: both run under the store lock with the group
    committer flushed, so every record not in the returned plan will be
    delivered to whatever live queue [register] attaches (via
    {!add_observer}'s stream) — no gap, no duplicate beyond seq-based
    dedup.  Raises [Failure] if the snapshot is unreadable. *)
let read_tail t ~fence ~register =
  locked t (fun () ->
      quiesce t;
      let snap_fence, state =
        match read_snapshot (snapshot_path t.dir) with
        | Result.Error e -> failwith e
        | Result.Ok None -> (0, [])
        | Result.Ok (Some (f, ms)) -> (f, List.map encode_mutation ms)
      in
      let entries =
        match Wal.scan_file (wal_path t.dir) with
        | exception Wal.Corrupt e -> failwith e
        | { Wal.entries; _ } ->
          List.filter_map
            (fun e ->
              if e.Wal.seq > snap_fence then Some (e.Wal.seq, e.Wal.payload)
              else None)
            entries
      in
      let plan =
        if fence >= snap_fence then
          Tail_records (List.filter (fun (s, _) -> s > fence) entries)
        else Tail_reset { fence = snap_fence; state; records = entries }
      in
      register ();
      plan)

(** [close t] — drain the group committer (if any), then fsync and
    close the WAL (the graceful-shutdown path: SIGTERM drains, then
    closes the log cleanly). *)
let close t =
  locked t (fun () ->
      Option.iter Wal.Group.stop t.group;
      Wal.close t.wal)
