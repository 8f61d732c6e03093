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
  mu : Mutex.t;  (** guards the WAL appender and the counters below *)
  wal : Wal.t;
  group : Wal.Group.group option;
      (** when set, appends go through the group committer: sequence
          numbers are assigned and records enqueued under [mu], but the
          write+fsync happens on the committer thread, batched with
          whatever other sessions were appending concurrently *)
  snapshot_every : int option;
  snapshot_bytes : int option;
  mutable next_seq : int;
  mutable good_bytes : int;  (** WAL offset after the last committed append *)
  mutable dirty : bool;      (** a failed append may have left torn bytes *)
  mutable since_snapshot : int;
  mutable since_snapshot_bytes : int;
  mutable snapshotting : bool;
  observers : (int -> string -> unit) list ref;
      (** commit observers, fired once per durable record in sequence
          order: under [mu] on the direct path, on the committer thread
          (via [Group.on_commit]) under group commit.  The replication
          hub taps the commit stream here. *)
  registry : Obs.registry;
  m_truncations : Obs.Counter.t;
  m_replayed : Obs.Counter.t;
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
let last_seq t = t.next_seq - 1

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

(** [open_dir ?registry ?fsync_on_commit ?group_commit ?snapshot_every
    ?snapshot_bytes dir] — create or recover the store.  On success,
    returns the opened store (WAL truncated past any torn tail, ready
    to append) and the recovery record whose [mutations] the caller
    must replay, in order, into a fresh service {e before} attaching
    the store.  [snapshot_every] arms {!want_snapshot} after that many
    WAL appends; [snapshot_bytes] arms it after that many WAL bytes
    (whichever trigger fires first wins).  [group_commit] routes
    appends through a dedicated {!Wal.Group} committer that batches
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
          let m_replayed =
            Obs.Registry.counter registry "obda_wal_replayed_records_total"
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
          let observers = ref [] in
          let notify batch =
            List.iter
              (fun (seq, payload) ->
                List.iter
                  (fun f -> try f seq payload with _ -> ())
                  !observers)
              batch
          in
          let group =
            if group_commit then
              Some
                (Wal.Group.start ~registry ~on_commit:notify
                   ~committed:valid_bytes wal)
            else None
          in
          let mutations = snap_mutations @ wal_mutations in
          Obs.Counter.incr ~by:(List.length mutations) m_replayed;
          let seconds = Unix.gettimeofday () -. t0 in
          Obs.Histogram.observe
            (Obs.Registry.histogram registry "obda_recovery_seconds")
            seconds;
          let t =
            {
              dir;
              mu = Mutex.create ();
              wal;
              group;
              snapshot_every;
              snapshot_bytes;
              next_seq = last_wal_seq + 1;
              good_bytes = valid_bytes;
              dirty = false;
              since_snapshot = List.length wal_mutations;
              since_snapshot_bytes = valid_bytes;
              snapshotting = false;
              observers;
              registry;
              m_truncations;
              m_replayed;
              m_snapshots = Obs.Registry.counter registry "obda_snapshots_total";
            }
          in
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

(* a previous append failed mid-record: cut the file back to the last
   committed offset so the torn bytes can never precede a good record *)
let repair_locked t =
  if t.dirty then begin
    Wal.truncate_to t.wal t.good_bytes;
    t.dirty <- false
  end

(** [add_observer t f] — register a commit observer.  [f seq payload]
    fires once per record {e after} it is durable, in sequence order:
    under the store lock on the direct path, on the committer thread
    under group commit (before the append's waiter is released, so by
    the time an acknowledged append returns the record has already been
    observed). *)
let add_observer t f = locked t (fun () -> t.observers := !(t.observers) @ [ f ])

let notify_direct t seq payload =
  List.iter (fun f -> try f seq payload with _ -> ()) !(t.observers)

(* the shared direct-path body: write one framed record at [seq] and
   advance the counters; caller holds [t.mu] *)
let append_direct_locked t ~seq payload =
  repair_locked t;
  (try Wal.append t.wal ~seq payload
   with e ->
     t.dirty <- true;
     raise e);
  t.next_seq <- max t.next_seq (seq + 1);
  t.good_bytes <- t.good_bytes + Wal.header_size + String.length payload;
  t.since_snapshot <- t.since_snapshot + 1;
  t.since_snapshot_bytes <-
    t.since_snapshot_bytes + Wal.header_size + String.length payload;
  notify_direct t seq payload

(** [append t m] — assign the next sequence number, frame, write, fsync.
    When this returns, [m] is durable; only then may the caller apply
    and acknowledge it.  Returns the assigned sequence number (the
    replication barrier waits on it).  Raises {!Failpoint.Injected} or
    [Unix.Unix_error] on (injected or real) I/O failure — the mutation
    must then be rejected, not applied. *)
let append t m =
  let payload = encode_mutation m in
  match t.group with
  | Some g ->
    (* group path: assign the sequence number and enqueue atomically
       under the store lock (so file order matches sequence order),
       then wait for the batch fsync OUTSIDE the lock — that release
       is what lets concurrent sessions share one fsync.  Failed
       batches leave sequence-number gaps, which recovery tolerates
       (it filters on [seq > fence], never on density). *)
    let seq, ticket =
      locked t (fun () ->
          let seq = t.next_seq in
          t.next_seq <- seq + 1;
          t.since_snapshot <- t.since_snapshot + 1;
          t.since_snapshot_bytes <-
            t.since_snapshot_bytes + Wal.header_size + String.length payload;
          (seq, Wal.Group.enqueue g ~seq payload))
    in
    Wal.Group.await g ticket;
    seq
  | None ->
    locked t (fun () ->
        let seq = t.next_seq in
        append_direct_locked t ~seq payload;
        seq)

(** [append_raw t ~seq payload] — append an already-encoded record under
    an {e explicit} sequence number: the replica apply path, which must
    preserve the primary's numbering so the replication fence is simply
    {!last_seq} and survives restarts for free.  [seq] must exceed
    {!last_seq} (gaps are fine — the primary's failed appends leave
    them); a stale or duplicate [seq] is rejected loudly. *)
let append_raw t ~seq payload =
  if seq <= last_seq t then
    invalid_arg
      (Printf.sprintf "Store.append_raw: seq %d not beyond last seq %d" seq
         (last_seq t));
  match t.group with
  | Some g ->
    let ticket =
      locked t (fun () ->
          t.next_seq <- max t.next_seq (seq + 1);
          t.since_snapshot <- t.since_snapshot + 1;
          t.since_snapshot_bytes <-
            t.since_snapshot_bytes + Wal.header_size + String.length payload;
          Wal.Group.enqueue g ~seq payload)
    in
    Wal.Group.await g ticket
  | None -> locked t (fun () -> append_direct_locked t ~seq payload)

(** [want_snapshot t] — true once either compaction trigger has fired
    ([snapshot_every] appends, or [snapshot_bytes] WAL bytes, since the
    last snapshot) and none is currently being written. *)
let want_snapshot t =
  match (t.snapshot_every, t.snapshot_bytes) with
  | None, None -> false
  | every, bytes ->
    locked t (fun () ->
        (not t.snapshotting)
        && ((match every with
             | Some every -> t.since_snapshot >= every
             | None -> false)
            || match bytes with
               | Some limit -> t.since_snapshot_bytes >= limit
               | None -> false))

(** [write_snapshot t mutations] — install [mutations] (a compacted
    replay of the {e entire} current state, typically produced under
    every session lock so no append can race) as the new snapshot, then
    empty the WAL.  Temp-file + [rename] keeps the old snapshot intact
    up to the atomic switch; the directory is fsync'd so the rename
    itself survives a crash. *)
let write_snapshot_locked t ~fence mutations =
  t.snapshotting <- true;
  Fun.protect
    ~finally:(fun () -> t.snapshotting <- false)
    (fun () ->
      (* quiesce the group committer before fencing: with the store
         lock held no new record can be enqueued, and [flush] waits
         out the in-flight batch — so every sequence number below
         the fence is either durably in the WAL or failed, and the
         [Wal.reset] below cannot race a batch write *)
      (match t.group with
       | Some g -> Wal.Group.flush g
       | None -> ());
      Failpoint.check "snapshot.before_write";
      let buf = Buffer.create 4096 in
          let add_record i payload =
            Buffer.add_bytes buf (Wal.encode ~seq:i payload)
          in
          add_record 0 (Printf.sprintf "%s%d" snapshot_header_prefix fence);
          List.iteri
            (fun i m -> add_record (i + 1) (encode_mutation m))
            mutations;
          let tmp = snapshot_tmp_path t.dir in
          let fd =
            Unix.openfile tmp [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644
          in
          Fun.protect
            ~finally:(fun () ->
              try Unix.close fd with Unix.Unix_error _ -> ())
            (fun () ->
              Io.write_all ~failpoint:"snapshot.write" fd (Buffer.to_bytes buf)
                ~pos:0 ~len:(Buffer.length buf);
              Io.fsync ~failpoint:"snapshot.before_fsync" fd);
          Failpoint.check "snapshot.before_rename";
          Unix.rename tmp (snapshot_path t.dir);
          Io.fsync_dir t.dir;
          Failpoint.check "snapshot.after_rename";
          Wal.reset t.wal;
          (match t.group with
           | Some g -> Wal.Group.note_reset g
           | None -> ());
          t.good_bytes <- 0;
          t.dirty <- false;
          t.since_snapshot <- 0;
          t.since_snapshot_bytes <- 0;
          Obs.Counter.incr t.m_snapshots;
          Log.info (fun m ->
              m "snapshot: %d record(s) at fence seq %d, wal reset"
                (List.length mutations) fence))

let write_snapshot t mutations =
  locked t (fun () ->
      write_snapshot_locked t ~fence:(t.next_seq - 1) mutations)

(** [install_snapshot t ~fence mutations] — replace the entire durable
    state with [mutations] compacted at the primary's [fence]: the
    replica's RESET catch-up path.  Any stale WAL suffix (records a
    fenced ex-primary appended but never replicated) is discarded with
    the reset; the next {!append_raw} continues from [fence + 1]. *)
let install_snapshot t ~fence mutations =
  locked t (fun () ->
      write_snapshot_locked t ~fence mutations;
      t.next_seq <- fence + 1)

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
      (match t.group with
       | Some g -> Wal.Group.flush g
       | None -> ());
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
      (match t.group with
       | Some g -> Wal.Group.stop g
       | None -> ());
      Wal.close t.wal)
