(** The embeddable OBDA query service: named sessions, caches, stats.

    A session is a mutable OBDA system — TBox, mappings, database — with
    an engine rebuilt on every intensional update and a monotonically
    increasing {e version} bumped on {e any} update (TBox, mappings or
    data).  Two cache layers sit on top, each keyed so that a stale hit
    is impossible:

    - the {e rewrite cache} (service-wide) maps
      [(tbox fingerprint, mappings fingerprint, query)] to the compiled
      UCQ ({!Obda.Engine.compile}: saturated, unfolded, minimized once).
      Compiling is a pure function of exactly those inputs — unfolding
      drops disjuncts by the mappings alone, never by the data — so the
      entries survive data updates (the OBDA promise that reasoning cost
      is paid on the TBox), and even TBox {e reverts} re-hit, since the
      fingerprint is structural;
    - the {e answer cache} (per session) maps a query to its canonical
      (sorted, deduplicated) answer set, stamped with the version it was
      computed at.  An entry at the current version is served as stored.
      An older one is refreshed and replaced in place, never left to
      linger: UCQ answers are monotone under insertion, so when only
      rows were inserted since its stamp, the refresh evaluates just the
      delta rule over those rows ({!Obda.Cq.evaluate_ucq_delta}) and
      merges the result into the stored list.  Any other staleness takes
      the full evaluation path.

    What makes a delta refresh possible is the session's {e fact
    journal}: the rows every FACTS and ABOX load inserted since the last
    non-monotone change, each batch tagged with the version its load
    produced.  A TBox or mappings load (the compiled rewriting changes),
    BULK END or ABORT (chunks insert without a version bump, so they are
    not journaled), a load that would take the journal past
    {!journal_bound} rows, and a load that fails part-way (its inserted
    prefix is in no batch) all clear it and move its start to the new
    version.  An entry stamped before the start is refreshed in full.

    The classification cache is fingerprint-keyed too, shared across
    sessions.  Correctness of the whole scheme — cached answers
    byte-identical to a fresh engine's under random update/query
    interleavings, at every LRU capacity — is QCheck-tested
    ([test/test_server.ml]) and differentially fuzzed (the [service]
    conformance subject).

    Locking: handlers may be called from any number of server worker
    domains.  Each session has its own mutex, held for the duration of
    any operation on it — a session is one mutable knowledge base, so
    its requests serialize, but requests against {e different} sessions
    run in parallel.  The session registry and the two service-wide
    caches are guarded by short-lived leaf mutexes of their own (lock
    order: session before cache/stats; the registry lock is never held
    across an operation, and over a session lock only while creating
    that session, when nothing else can hold it).  Cached values shared
    between sessions (classifications, compiled UCQs) are immutable, so
    concurrent reads need no lock.

    One front door: every mutation and ask arrives as a wire request
    through {!handle} — from the server, the replica applier, recovery
    and embedders alike.

    Durability: with a {!Durable.Store.t} attached, every mutation
    (LOAD, BULK, PREPARE) is validated, then
    appended to the write-ahead log and fsync'd, and only then applied
    and acknowledged — so an acknowledged mutation is always on disk,
    and a WAL refusal (injected or real I/O failure) turns into an
    [ERR] with the in-memory state untouched.  {!restore} replays a
    recovered mutation list through the exact same handlers;
    classifications and rewritings are then re-derived on demand and
    re-hit the fingerprint-keyed caches naturally.  Periodic snapshots
    compact the whole service into a few records per session, written
    stop-the-world under every session lock in the session → store
    order that mutating operations also follow. *)

open Dllite

(* ------------------------------- config ----------------------------- *)

(** Every service-level knob in one record, built in one place (the
    server's flag parser) instead of threaded as parallel optional-arg
    chains through [Engine] / [Service] / [Serve] / [obda_server].
    [default] is a working embedded configuration; override fields with
    [{ Config.default with lru = 8 }]. *)
module Config = struct
  type t = {
    lru : int;  (** capacity of the rewrite and per-session answer caches *)
    slow_log_s : float;
        (** spans and ops slower than this are logged; [infinity] disables *)
    chaos : bool;  (** honour the [FAIL] wire verb *)
  }

  let default =
    {
      lru = 256;
      slow_log_s = infinity;
      chaos = false;
    }
end

(* one atomic chunk-stream in progress on a session (the BULK verb) *)
type bulk_state = { mutable chunks : int; mutable facts : int }

type session = {
  sname : string;
  smutex : Mutex.t;  (** held for the duration of any operation on the session *)
  mutable tbox : Tbox.t;
  mutable mappings : Obda.Mapping.t;
  database : Obda.Database.t;
  mutable engine : Obda.Engine.t;
  mutable version : int;   (** bumped on every TBox / mapping / data update *)
  mutable tbox_fp : string;
  mutable map_fp : string;
  prepared : (string, string) Hashtbl.t;  (** name -> raw query text *)
  answers : (string, int * string list list) Lru.t;
      (** query -> (version computed at, canonical answers) *)
  mutable journal : (int * (string * string list) list) list;
      (** the fact journal: (version, rows inserted by that load),
          newest first *)
  mutable journal_start : int;  (** version the journal was last cleared at *)
  mutable journal_rows : int;   (** rows held by [journal] *)
  (* durable replay sources: the payload text that rebuilds the current
     TBox, and — because mapping text parses against the signature in
     force when it was loaded — the (tbox text, mappings text) pair from
     the last mappings load.  Snapshots are compacted from these plus a
     dump of the database. *)
  mutable d_tbox_text : string list;
  mutable d_map : (string list * string list) option;
  mutable bulk : bulk_state option;
      (** active BULK stream: chunks apply without a version bump, asks
          bypass the answer cache, END bumps once and clears the
          journal *)
}

(** The node's replication role.  A [Replica] refuses every mutating
    verb over the wire — its state advances only through the replication
    apply path — so a client that writes to the wrong node gets a
    pointed, machine-detectable refusal (see {!read_only_prefix})
    instead of a silent fork. *)
type role =
  | Primary
  | Replica of { primary : string }  (** advertised primary endpoint, or "" *)

(** Every read-only refusal starts with this token — the failover client
    keys on it to re-resolve the primary. *)
let read_only_prefix = "read-only replica"

(** Hooks a cluster node installs on its primary: [gate] runs before a
    mutation is WAL-appended (a fenced ex-primary refuses before logging
    anything), [barrier] runs after the append with the assigned
    sequence number and blocks until the replication layer is satisfied
    (first subscriber ack, or immediately when no replica is
    subscribed). *)
type repl_hooks = {
  gate : unit -> (unit, string) Result.t;
  barrier : int -> (unit, string) Result.t;
}

type t = {
  registry_mutex : Mutex.t;  (** guards [sessions]; never held across an op *)
  cache_mutex : Mutex.t;     (** guards [rewrites] and [classifications] *)
  snap_mutex : Mutex.t;      (** at most one snapshot writer at a time *)
  mutable store : Durable.Store.t option;
      (** attached via {!attach_store} after {!restore}; [None] = no
          durability *)
  mutable role : role;
  mutable repl : repl_hooks option;
  config : Config.t;
  registry : Obs.registry;   (** every metric of this service lives here *)
  mutable snapshot_exec : Parallel.Executor.t option;
      (** when set, triggered snapshots run as a background task instead
          of on the request path *)
  sessions : (string, session) Hashtbl.t;
  rewrites : (string, Obda.Cq.ucq) Lru.t;
  classifications : (string, Quonto.Classify.t) Lru.t;
  answered : Obs.Counter.t * Obs.Counter.t * Obs.Counter.t;
      (** [obda_answers_total] by path: hit, delta, full *)
}

(** [create ?config ?registry ()] — all service knobs arrive through
    {!Config}.  [registry] defaults to {!Obs.default}, which is what a
    server process wants (library-level spans record there too);
    embedders that need isolated counters (tests) pass their own.
    [config.slow_log_s] installs the process-wide slow-span threshold. *)
let create ?(config = Config.default) ?(registry = Obs.default) () =
  Obs.set_slow_log_threshold config.Config.slow_log_s;
  {
    registry_mutex = Mutex.create ();
    cache_mutex = Mutex.create ();
    snap_mutex = Mutex.create ();
    store = None;
    role = Primary;
    repl = None;
    config;
    registry;
    snapshot_exec = None;
    sessions = Hashtbl.create 8;
    rewrites =
      Lru.create
        ~metrics:(registry, [ ("cache", "rewrite") ])
        ~capacity:config.Config.lru ();
    classifications =
      Lru.create
        ~metrics:(registry, [ ("cache", "classify") ])
        ~capacity:(max 1 (min config.Config.lru 16))
        ();
    answered =
      (let path p =
         Obs.Registry.counter registry ~labels:[ ("path", p) ] "obda_answers_total"
       in
       (path "hit", path "delta", path "full"));
  }

let registry t = t.registry
let role t = t.role
let set_role t role = t.role <- role

(** [set_repl_hooks t hooks] — install the cluster gate/barrier around
    every WAL append ([None] removes them: promotion to a standalone
    primary, tests). *)
let set_repl_hooks t hooks = t.repl <- hooks

let locked m f =
  Mutex.lock m;
  Fun.protect ~finally:(fun () -> Mutex.unlock m) f

(* per-operation latency: one histogram per wire verb, plus the shared
   slow log (the registry lookup is a mutex-guarded hashtable find —
   negligible next to any actual operation) *)
let timed t op f =
  let h = Obs.Registry.histogram t.registry ~labels:[ ("op", op) ] "obda_op_seconds" in
  let t0 = Unix.gettimeofday () in
  let result = f () in
  let elapsed = Unix.gettimeofday () -. t0 in
  Obs.Histogram.observe h elapsed;
  Obs.slow_check ("op:" ^ op) elapsed;
  result

(* ----------------------------- fingerprints ------------------------- *)

let fp_mappings mappings =
  let buf = Buffer.create 256 in
  List.iter
    (fun m ->
      Buffer.add_string buf (Obda.Mapping.target_pred m.Obda.Mapping.target);
      List.iter
        (fun term -> Buffer.add_string buf (Obda.Cq.show_term term))
        (Obda.Mapping.target_args m.Obda.Mapping.target);
      Buffer.add_string buf (Obda.Cq.show m.Obda.Mapping.source);
      Buffer.add_char buf '\n')
    mappings;
  Digest.to_hex (Digest.string (Buffer.contents buf))

(* --------------------------- replay renderers ----------------------- *)
(* Renderers producing the text logged to the WAL and written into
   snapshots.  Each output re-parses through the same front door the
   original request came through ([Parser.tbox_of_string],
   [Qparse.parse_mappings], [Qparse.parse_facts]), so recovery is the
   normal load path — not a second deserializer that could drift.       *)

let fact_line = Obda.Qparse.fact_line

(* [Tbox.to_string] prints axioms only; replay also needs the declared
   vocabulary (classification reports axiom-free names, and mapping /
   ABox loads validate against it), so emit explicit declarations *)
let tbox_payload tbox =
  let sg = Tbox.signature tbox in
  List.map (fun c -> "concept " ^ c) (Signature.concepts sg)
  @ List.map (fun r -> "role " ^ r) (Signature.roles sg)
  @ List.map (fun a -> "attr " ^ a) (Signature.attributes sg)
  @ List.map Syntax.axiom_to_string (Tbox.axioms tbox)

let head_text = function
  | Obda.Mapping.Concept_head (a, t) ->
    Printf.sprintf "%s(%s)" a (Obda.Qparse.term_text t)
  | Obda.Mapping.Role_head (p, t1, t2) ->
    Printf.sprintf "%s(%s, %s)" p (Obda.Qparse.term_text t1)
      (Obda.Qparse.term_text t2)
  | Obda.Mapping.Attr_head (u, t, v) ->
    Printf.sprintf "%s(%s, %s)" u (Obda.Qparse.term_text t)
      (Obda.Qparse.term_text v)

(* body atoms print untagged when the sort tag came from [signature] —
   the replay parse against the same signature re-tags them identically *)
let mappings_payload signature mappings =
  List.map
    (fun m ->
      Printf.sprintf "map %s <- %s"
        (head_text m.Obda.Mapping.target)
        (String.concat ", "
           (List.map (Obda.Qparse.atom_text ~signature)
              m.Obda.Mapping.source.Obda.Cq.body)))
    mappings

(* ------------------------- log before apply ------------------------- *)

(** [commit t ~log mutation apply] — the one mutation path: validate
    first (the caller has), then log [mutation] to the WAL and pass the
    replication barrier, and only then [apply ()] and acknowledge.  A
    refusal before [apply] is an ERR with nothing applied, and the
    refused record never replays.  [log = false] is the replication /
    restore apply path: the record is already durable (in the recovered
    WAL, or [append_raw]'d by the replica applier before this call). *)
let commit t ~log mutation apply =
  let logged =
    match t.store with
    | Some store when log -> (
      (* a fenced ex-primary refuses before logging: its WAL must not
         grow a suffix the new epoch will never replicate *)
      match (match t.repl with Some r -> r.gate () | None -> Result.Ok ()) with
      | Result.Error _ as e -> e
      | Result.Ok () -> (
        try
          let seq = Durable.Store.append store mutation in
          (* semi-synchronous replication: hold the ack until the record
             is on at least one subscribed replica.  A barrier refusal
             leaves the record durable locally but unacknowledged — the
             client must treat it as not applied, and a later
             epoch-gated rejoin discards it with the rest of the stale
             suffix. *)
          match t.repl with Some r -> r.barrier seq | None -> Result.Ok ()
        with
        | Durable.Failpoint.Injected name ->
          Result.Error (Printf.sprintf "wal: injected fault at %s" name)
        | Unix.Unix_error (e, fn, _) ->
          Result.Error (Printf.sprintf "wal: %s: %s" fn (Unix.error_message e))
        | Sys_error e -> Result.Error ("wal: " ^ e)))
    | _ -> Result.Ok ()
  in
  match logged with
  | Result.Error e -> Wire.Err e
  | Result.Ok () ->
    apply ();
    Wire.Ok []

let load_mutation s kind payload =
  Durable.Store.Load
    { session = s.sname; kind = Wire.string_of_kind kind; payload }

(* ------------------------------ sessions ---------------------------- *)

let rebuild_engine s =
  s.engine <-
    Obda.Engine.create ~tbox:s.tbox ~mappings:s.mappings ~database:s.database ()

let bump s = s.version <- s.version + 1

(** The most rows the fact journal holds, the largest k of the
    ["incremental"] section of [BENCH_serve.json]: from 100k tuples up a
    delta refresh over that many rows is at worst even with a full
    evaluation, while on small data the cheapest queries lose about a
    millisecond near it.  A load that would overflow it clears the
    journal instead — as recovery's whole-database FACTS replay always
    does. *)
let journal_bound = 4096

(* after a non-monotone change (and its bump): no cached entry stamped
   before now can be refreshed by delta *)
let clear_journal s =
  s.journal <- [];
  s.journal_rows <- 0;
  s.journal_start <- s.version

let fresh_session t name =
  let database = Obda.Database.create () in
  let tbox = Tbox.empty in
  {
    sname = name;
    smutex = Mutex.create ();
    tbox;
    mappings = [];
    database;
    engine = Obda.Engine.create ~tbox ~mappings:[] ~database ();
    version = 0;
    tbox_fp = Tbox.fingerprint tbox;
    map_fp = fp_mappings [];
    prepared = Hashtbl.create 8;
    answers =
      Lru.create
        ~metrics:(t.registry, [ ("cache", "answers"); ("session", name) ])
        ~capacity:t.config.Config.lru ();
    journal = [];
    journal_start = 0;
    journal_rows = 0;
    d_tbox_text = [];
    d_map = None;
    bulk = None;
  }

(* Registry lookups hold only the (leaf-duration) registry mutex; the
   returned session is then locked by the caller.  LOAD / PREPARE bring
   sessions into existence ({!with_session_for_mutation}); read-only
   operations on unknown names fail. *)
let find_session t name =
  locked t.registry_mutex (fun () -> Hashtbl.find_opt t.sessions name)

(** [drop_session t ~session] forgets the session entirely (its answer
    cache goes with it, and that cache's metrics leave the registry;
    service-wide caches are untouched — their keys are fingerprints,
    not session names). *)
let drop_session t ~session:name =
  match
    locked t.registry_mutex (fun () ->
        let s = Hashtbl.find_opt t.sessions name in
        Hashtbl.remove t.sessions name;
        s)
  with
  | None -> ()
  | Some s -> Lru.unregister s.answers

(* [s] is still the session registered under its name *)
let registered t s =
  match find_session t s.sname with Some s' -> s' == s | None -> false

(** [with_session t name f] runs [f s] under the lock of the existing
    session [name]; a session dropped while [f] waited for its lock (see
    below) is unknown too. *)
let with_session t name f =
  let unknown () = Wire.Err (Printf.sprintf "unknown session %s" name) in
  match find_session t name with
  | None -> unknown ()
  | Some s ->
    locked s.smutex (fun () -> if registered t s then f s else unknown ())

(** [with_session_for_mutation t name f] runs [f s] under the lock of
    session [name], created when absent.  A created session is locked
    before it is registered, so [f] applies its first mutation; if [f]
    refuses (any reply but OK, or an exception) the session is dropped
    before its lock is released, leaving no trace in STATS or a
    snapshot.  A caller that waited on that lock finds the session
    unregistered and starts over. *)
let rec with_session_for_mutation t name f =
  let s, created =
    locked t.registry_mutex (fun () ->
        match Hashtbl.find_opt t.sessions name with
        | Some s -> (s, false)
        | None ->
          let s = fresh_session t name in
          Mutex.lock s.smutex;
          Hashtbl.replace t.sessions name s;
          (s, true))
  in
  if not created then Mutex.lock s.smutex;
  if not (created || registered t s) then begin
    Mutex.unlock s.smutex;
    with_session_for_mutation t name f
  end
  else
    let refused () = if created then drop_session t ~session:name in
    Fun.protect
      ~finally:(fun () -> Mutex.unlock s.smutex)
      (fun () ->
        match f s with
        | Wire.Ok _ as reply -> reply
        | reply ->
          refused ();
          reply
        | exception e ->
          refused ();
          raise e)

let session_names t =
  locked t.registry_mutex (fun () ->
      Hashtbl.fold (fun name _ acc -> name :: acc) t.sessions []
      |> List.sort compare)

(* --------------------------- core operations ------------------------ *)
(* All [op_*] functions assume the session's mutex is held; the shared
   caches they touch are guarded internally by [cache_mutex].           *)

(* [source] is the payload text the mutation arrived as: the session
   keeps the replay text its current state can be rebuilt from *)
let op_set_tbox s ~source tbox =
  s.tbox <- tbox;
  s.tbox_fp <- Tbox.fingerprint tbox;
  s.d_tbox_text <- source;
  rebuild_engine s;
  bump s;
  clear_journal s

let op_set_mappings s ~source mappings =
  (* mapping text parses against the signature in force *now*: remember
     the TBox text it was loaded under, for snapshot compaction *)
  s.d_map <- Some (s.d_tbox_text, source);
  s.mappings <- mappings;
  s.map_fp <- fp_mappings mappings;
  rebuild_engine s;
  bump s;
  clear_journal s

(* a load that fails part-way (a row of the wrong arity) has inserted a
   prefix of its rows that no journal batch holds: bump and clear, so
   every cached entry takes the full path instead of a delta that would
   miss those rows *)
let op_insert_facts s rows =
  (match List.iter (fun (rel, row) -> Obda.Database.insert s.database rel row) rows with
   | () -> ()
   | exception e ->
     bump s;
     clear_journal s;
     raise e);
  bump s;
  let n = List.length rows in
  if s.journal_rows + n > journal_bound then clear_journal s
  else begin
    s.journal <- (s.version, rows) :: s.journal;
    s.journal_rows <- s.journal_rows + n
  end

let op_classification t s =
  match locked t.cache_mutex (fun () -> Lru.find t.classifications s.tbox_fp) with
  | Some cls -> cls
  | None ->
    (* computed outside the cache lock: two sessions racing on the same
       fingerprint may classify twice, but neither blocks the cache *)
    let cls = Obda.Engine.classification s.engine in
    locked t.cache_mutex (fun () -> Lru.put t.classifications s.tbox_fp cls);
    cls

let compiled_query t s qkey q =
  let rkey = Printf.sprintf "%s|%s|%s" s.tbox_fp s.map_fp qkey in
  match locked t.cache_mutex (fun () -> Lru.find t.rewrites rkey) with
  | Some compiled -> compiled
  | None ->
    let compiled = Obda.Engine.compile s.engine [ q ] in
    locked t.cache_mutex (fun () -> Lru.put t.rewrites rkey compiled);
    compiled

(* the journaled rows inserted after version [since], as a database the
   delta atom reads *)
let journal_since s since =
  let delta = Obda.Database.create () in
  let rec go = function
    | (v, rows) :: older when v > since ->
      List.iter (fun (rel, row) -> Obda.Database.insert delta rel row) rows;
      go older
    | _ -> ()
  in
  go s.journal;
  delta

(* the cached certain-answers pipeline; answers are canonicalized
   (sorted by [Cq.compare_tuple], deduplicated) before caching so every
   consumer — wire replies, the conformance subject, the QCheck
   property — sees one deterministic byte representation.  This is the
   single rendering point the [Database] ordering contract leans on:
   the cost-based executor underneath returns tuples in plan-dependent
   order (its selectivity-ordered plan is chosen fresh per evaluation
   against the live index statistics), and the sort here makes that
   invisible.  An entry is served as stored only at the current
   version; an older one is refreshed by delta when the journal covers
   everything since its stamp, in full otherwise (see the header) *)
let op_ask t s q =
  let qkey = Obda.Cq.show q in
  (* during an active BULK stream the version is deliberately not
     bumped per chunk, so the answer cache is bypassed in both
     directions: a hit would serve pre-bulk answers as if current, and
     a miss computed over half-streamed data must not be cached under a
     stamp that outlives the stream *)
  let bulk_active = s.bulk <> None in
  let current (v, _) = v = s.version in
  let hit, delta, full = t.answered in
  match
    if bulk_active then None else Lru.find ~hit:current s.answers qkey
  with
  | Some (v, tuples) when v = s.version ->
    Obs.Counter.incr hit;
    tuples
  | cached ->
    let compiled = compiled_query t s qkey q in
    let tuples =
      match cached with
      | Some (v, old) when v >= s.journal_start ->
        Obs.Counter.incr delta;
        let added =
          Obda.Engine.evaluate_delta s.engine compiled
            ~delta:(journal_since s v)
        in
        Obda.Cq.merge_answers old (Obda.Cq.sort_answers added)
      | _ ->
        Obs.Counter.incr full;
        Obda.Cq.sort_answers (Obda.Engine.evaluate_compiled s.engine compiled)
    in
    if not bulk_active then Lru.put s.answers qkey (s.version, tuples);
    tuples

(* ------------------------------ snapshots --------------------------- *)

(* The compact mutation list a session's state replays from (caller
   holds [s.smutex]): the TBox text — preceded, when the mappings were
   loaded under a different TBox, by that TBox so the mapping text
   parses against the right signature — then one FACTS dump of the
   database (materialized ABox assertions ride along as their tagged
   relations), then the prepared queries.  Facts and prepared names are
   sorted so snapshots of equal states are byte-identical. *)
let dump_session_records s =
  let load kind payload =
    Durable.Store.Load { session = s.sname; kind; payload }
  in
  let intensional =
    match s.d_map with
    | None -> [ load "TBOX" s.d_tbox_text ]
    | Some (tt, mp) when tt = s.d_tbox_text ->
      [ load "TBOX" tt; load "MAPPINGS" mp ]
    | Some (tt, mp) ->
      [ load "TBOX" tt; load "MAPPINGS" mp; load "TBOX" s.d_tbox_text ]
  in
  let facts =
    List.concat_map
      (fun rel -> List.map (fact_line rel) (Obda.Database.rows s.database rel))
      (Obda.Database.relation_names s.database)
    |> List.sort compare
  in
  let prepared =
    Hashtbl.fold (fun name query acc -> (name, query) :: acc) s.prepared []
    |> List.sort compare
    |> List.map (fun (name, query) ->
           Durable.Store.Prepare { session = s.sname; name; query })
  in
  intensional
  @ (if facts = [] then [] else [ load "FACTS" facts ])
  @ prepared

(** [snapshot_now t] compacts the whole service state into a snapshot
    (no-op without an attached store).  Stop-the-world: every session
    lock is taken (in sorted-name order) before the store is touched —
    the same session → store order every mutating operation follows, so
    the fenced sequence number cannot race a concurrent append.  A
    failed write is logged and dropped; the WAL still has everything. *)
let snapshot_now t =
  match t.store with
  | None -> ()
  | Some store ->
    if Mutex.try_lock t.snap_mutex then
      Fun.protect
        ~finally:(fun () -> Mutex.unlock t.snap_mutex)
        (fun () ->
          let sessions = List.filter_map (find_session t) (session_names t) in
          List.iter (fun s -> Mutex.lock s.smutex) sessions;
          Fun.protect
            ~finally:(fun () ->
              List.iter (fun s -> Mutex.unlock s.smutex) (List.rev sessions))
            (fun () ->
              let records =
                List.concat_map dump_session_records
                  (List.filter (registered t) sessions)
              in
              try Durable.Store.write_snapshot store records with
              | Durable.Failpoint.Injected name ->
                Logs.warn (fun m ->
                    m "snapshot refused: injected fault at %s" name)
              | Unix.Unix_error (e, fn, _) ->
                Logs.warn (fun m ->
                    m "snapshot failed: %s: %s" fn (Unix.error_message e))))

(* called after every mutating operation, outside the session lock;
   with a snapshot executor installed the compaction runs as a
   background task instead of stalling the request that tripped the
   trigger (a full queue just postpones it to the next trigger, and
   [snapshot_now]'s try-lock collapses duplicate submissions) *)
let maybe_snapshot t =
  match t.store with
  | Some store when Durable.Store.want_snapshot store -> (
    match t.snapshot_exec with
    | Some exec ->
      ignore (Parallel.Executor.try_submit exec (fun () -> snapshot_now t))
    | None -> snapshot_now t)
  | _ -> ()

(** [set_snapshot_executor t exec] — run triggered snapshots on [exec]
    (a dedicated executor, typically one worker / queue one) instead of
    on the request path.  Explicit {!snapshot_now} calls still run
    inline. *)
let set_snapshot_executor t exec = t.snapshot_exec <- Some exec

(* ------------------------------- stats ------------------------------ *)

(** The wire STATS schema version announced on the first payload line. *)
let stats_version = 2

let sample name labels value = { Obs.name; labels; value }

(* service- and session-level facts are computed at scrape time — they
   are authoritative state (session count, axiom count), not event
   streams, so they don't live as registry metrics *)
let scrape_samples ?session:filter t =
  let names =
    match filter with
    | Some n -> (match find_session t n with Some _ -> [ n ] | None -> [])
    | None -> session_names t
  in
  let service_samples =
    [
      sample "obda_service_sessions" []
        (float_of_int
           (locked t.registry_mutex (fun () -> Hashtbl.length t.sessions)));
      sample "obda_service_lru_capacity" [] (float_of_int t.config.Config.lru);
    ]
  in
  let session_samples =
    List.concat_map
      (fun name ->
        match find_session t name with
        | None -> []
        | Some s ->
          locked s.smutex (fun () ->
              let labels = [ ("session", name) ] in
              [
                sample "obda_session_version" labels (float_of_int s.version);
                sample "obda_session_axioms" labels
                  (float_of_int (Tbox.axiom_count s.tbox));
                sample "obda_session_mappings" labels
                  (float_of_int (List.length s.mappings));
                sample "obda_session_facts" labels
                  (float_of_int (Obda.Database.size s.database));
                sample "obda_session_prepared" labels
                  (float_of_int (Hashtbl.length s.prepared));
              ]))
      names
  in
  service_samples @ session_samples

let render_sample { Obs.name; labels; value } =
  let rendered_labels =
    match labels with
    | [] -> "-"
    | labels ->
      String.concat "," (List.map (fun (k, v) -> k ^ "=" ^ v) labels)
  in
  Printf.sprintf "%s %s %s" name rendered_labels (Obs.string_of_value value)

(* Not a consistent snapshot — each mutex is taken briefly in turn
   (the Obs registry, then the session registry, then each session),
   which is fine for an observability surface and keeps STATS from
   stalling asks. *)

(** [stats_lines ?session t] — the versioned STATS reply: a
    [stats.version 2] line, then one [<metric> <labels> <value>] line
    per sample, sorted.  With a session filter, registry samples
    labelled with a {e different} session are dropped (service-wide
    metrics all stay — they aggregate over sessions by nature). *)
let stats_lines ?session:filter t =
  let registry_samples =
    let all = Obs.Registry.samples t.registry in
    match filter with
    | None -> all
    | Some n ->
      List.filter
        (fun { Obs.labels; _ } ->
          match List.assoc_opt "session" labels with
          | Some other -> other = n
          | None -> true)
        all
  in
  let samples =
    List.sort
      (fun a b -> compare (a.Obs.name, a.Obs.labels) (b.Obs.name, b.Obs.labels))
      (registry_samples @ scrape_samples ?session:filter t)
  in
  Printf.sprintf "stats.version %d" stats_version
  :: List.map render_sample samples

(** [metrics_lines t] — the Prometheus-style exposition, as reply
    payload lines (the [METRICS] wire verb). *)
let metrics_lines t =
  match String.split_on_char '\n' (Obs.Registry.exposition t.registry) with
  | lines -> List.filter (fun l -> l <> "") lines

(** [hit_rates t] — (rewrite cache, classification cache) hit rates,
    for the serve benchmark's report. *)
let hit_rates t =
  locked t.cache_mutex (fun () ->
      (Lru.hit_rate t.rewrites, Lru.hit_rate t.classifications))

(* ------------------------------ wire layer -------------------------- *)

let render_tuple = function
  | [] -> "()"  (* boolean query answered positively *)
  | tuple -> String.concat ", " tuple

let handle_load ?(log = true) t s kind payload =
  let text = String.concat "\n" payload in
  (* validate fully, then [commit]: a malformed payload is never logged *)
  let commit = commit t ~log (load_mutation s kind payload) in
  match kind with
  | Wire.K_tbox -> (
    match Parser.tbox_of_string text with
    | Result.Ok tbox -> commit (fun () -> op_set_tbox s ~source:payload tbox)
    | Result.Error e -> Wire.Err ("ontology: " ^ e))
  | Wire.K_mappings -> (
    match Obda.Qparse.parse_mappings ~signature:(Tbox.signature s.tbox) text with
    | mappings -> commit (fun () -> op_set_mappings s ~source:payload mappings)
    | exception Obda.Qparse.Parse_error e -> Wire.Err ("mappings: " ^ e))
  | Wire.K_abox -> (
    (* ABox assertions materialize as their tagged relations *)
    match Obda.Qparse.parse_abox ~signature:(Tbox.signature s.tbox) text with
    | assertions ->
      commit (fun () ->
          op_insert_facts s (List.map Obda.Vabox.fact_of_assertion assertions))
    | exception Obda.Qparse.Parse_error e -> Wire.Err ("abox: " ^ e))
  | Wire.K_facts -> (
    (* parse fully before the first insert: a malformed line must leave
       the database untouched, or the unchanged version would keep
       serving pre-load answers from the cache over a half-loaded KB *)
    match Obda.Qparse.parse_facts text with
    | rows -> commit (fun () -> op_insert_facts s rows)
    | exception Obda.Qparse.Parse_error e -> Wire.Err ("facts: " ^ e))

(* ------------------------- streaming bulk load ----------------------- *)
(* One chunk = one WAL record = one atomic unit: validated fully, then
   logged (as an ordinary FACTS load, so recovery replays chunks through
   the normal path with no second deserializer), then applied.  A
   malformed line rejects exactly its own chunk; earlier acked chunks
   are already durable and stay.  The per-chunk version bump is
   deliberately skipped — [op_ask] bypasses the answer cache while a
   stream is active, and END performs the single bump that makes the
   whole load visible to cached readers at once.  Chunks are not
   journaled, so END and ABORT also clear the fact journal: every entry
   cached before the stream is refreshed in full. *)

let handle_bulk_chunk ?(log = true) t s payload =
  let text = String.concat "\n" payload in
  match Obda.Qparse.parse_facts text with
  | exception Obda.Qparse.Parse_error e -> Wire.Err ("facts: " ^ e)
  | rows ->
    commit t ~log (load_mutation s Wire.K_facts payload) (fun () ->
        List.iter
          (fun (rel, row) -> Obda.Database.insert s.database rel row)
          rows;
        let b =
          match s.bulk with
          | Some b -> b
          | None ->
            let b = { chunks = 0; facts = 0 } in
            s.bulk <- Some b;
            b
        in
        b.chunks <- b.chunks + 1;
        b.facts <- b.facts + List.length rows)

(* close the active stream, END or ABORT alike, and return it: acked
   chunks are durable and stay (atomicity is per chunk, not per stream),
   so any data change must still invalidate cached answers *)
let close_bulk s =
  match s.bulk with
  | None -> None
  | Some b ->
    s.bulk <- None;
    if b.chunks > 0 then bump s;
    clear_journal s;
    Some b

let parse_query s text =
  match Obda.Qparse.parse_query ~signature:(Tbox.signature s.tbox) text with
  | q -> Result.Ok q
  | exception Obda.Qparse.Parse_error e -> Result.Error e

let handle_ask t s query_ref =
  let text =
    match query_ref with
    | Wire.Inline text -> Result.Ok text
    | Wire.Named name -> (
      match Hashtbl.find_opt s.prepared name with
      | Some text -> Result.Ok text
      | None -> Result.Error (Printf.sprintf "unknown prepared query %s" name))
  in
  match text with
  | Result.Error e -> Wire.Err e
  | Result.Ok text -> (
    match parse_query s text with
    | Result.Error e -> Wire.Err ("query: " ^ e)
    | Result.Ok q ->
      let tuples = op_ask t s q in
      Wire.Ok (List.map render_tuple tuples))

let is_mutation = function
  | Wire.Load _ | Wire.Bulk_chunk _ | Wire.Bulk_end _ | Wire.Bulk_abort _
  | Wire.Prepare _ ->
    true
  | Wire.Hello _ | Wire.Classify _ | Wire.Ask _ | Wire.Stats _ | Wire.Metrics
  | Wire.Fail _ | Wire.Repl_subscribe _ | Wire.Repl_status | Wire.Repl_promote _
  | Wire.Quit ->
    false

(** [handle t request] — the service behind the wire protocol.  Pure
    mapping of requests onto the operations above; handlers may be
    invoked from any worker, and requests lock only their own session,
    so distinct sessions are served in parallel.  [Quit] is acknowledged
    here but connection teardown is the server's business.

    [internal] marks the replication / restore apply path: the role
    check is skipped (that is the {e only} way a replica's state moves)
    and nothing is re-logged to the WAL. *)
let rec handle ?(internal = false) t request =
  match t.role with
  | Replica { primary } when (not internal) && is_mutation request ->
    Wire.Err
      (if primary = "" then read_only_prefix
       else Printf.sprintf "%s; primary is %s" read_only_prefix primary)
  | _ -> handle_checked ~internal t request

and handle_checked ~internal t request =
  let log = not internal in
  match request with
  | Wire.Hello v ->
    (* embedded callers get the handshake as a plain reply; the serving
       layer additionally records the granted version per connection *)
    Wire.Ok [ Wire.hello_reply (min v Wire.max_version) ]
  | Wire.Bulk_chunk { session = name; payload } ->
    let reply =
      with_session_for_mutation t name (fun s ->
          timed t "bulk" (fun () -> handle_bulk_chunk ~log t s payload))
    in
    maybe_snapshot t;
    reply
  | Wire.Bulk_end { session = name } ->
    with_session t name (fun s ->
        timed t "bulk" (fun () ->
            match close_bulk s with
            | None -> Wire.Err "no active bulk load"
            | Some b ->
              Wire.Ok [ Printf.sprintf "chunks %d facts %d" b.chunks b.facts ]))
  | Wire.Bulk_abort { session = name } ->
    (* idempotent: ABORT with nothing in flight is fine *)
    with_session t name (fun s ->
        timed t "bulk" (fun () ->
            ignore (close_bulk s);
            Wire.Ok []))
  | Wire.Load { session = name; kind; payload } ->
    let reply =
      with_session_for_mutation t name (fun s ->
          timed t "load" (fun () -> handle_load ~log t s kind payload))
    in
    maybe_snapshot t;
    reply
  | Wire.Classify { session = name } ->
    with_session t name (fun s ->
        timed t "classify" (fun () ->
            let cls = op_classification t s in
            Wire.Ok
              (List.map Quonto.Classify.line (Quonto.Classify.name_level cls))))
  | Wire.Prepare { session = name; name = qname; query } ->
    let reply =
      with_session_for_mutation t name (fun s ->
          timed t "prepare" (fun () ->
              match parse_query s query with
              | Result.Error e -> Wire.Err ("query: " ^ e)
              | Result.Ok _ ->
                commit t ~log
                  (Durable.Store.Prepare { session = name; name = qname; query })
                  (fun () ->
                    (* stored as text and re-parsed per ASK: a later TBox
                       swap may re-sort predicate names, which must
                       affect the parse, not silently reuse a stale one *)
                    Hashtbl.replace s.prepared qname query)))
    in
    maybe_snapshot t;
    reply
  | Wire.Ask { session = name; query } ->
    with_session t name (fun s -> timed t "ask" (fun () -> handle_ask t s query))
  | Wire.Stats filter ->
    timed t "stats" (fun () -> Wire.Ok (stats_lines ?session:filter t))
  | Wire.Metrics -> timed t "metrics" (fun () -> Wire.Ok (metrics_lines t))
  | Wire.Fail { name; spec } ->
    timed t "fail" (fun () ->
        if not t.config.Config.chaos then
          Wire.Err "FAIL requires a server started with --chaos"
        else
          match Durable.Failpoint.arm_spec name spec with
          | Result.Ok () -> Wire.Ok []
          | Result.Error e -> Wire.Err ("failpoint: " ^ e))
  | Wire.Repl_subscribe _ | Wire.Repl_status | Wire.Repl_promote _ ->
    (* intercepted by the serving layer when a cluster node is wired in;
       reaching the bare service means there is none *)
    Wire.Err "replication not enabled on this server"
  | Wire.Quit -> Wire.Ok []

(* ------------------------------ recovery ---------------------------- *)

let request_of_mutation m =
  match m with
  | Durable.Store.Load { session; kind; payload } -> (
    match Wire.kind_of_string kind with
    | Some kind -> Result.Ok (Wire.Load { session; kind; payload })
    | None -> Result.Error (Printf.sprintf "unknown load kind %s" kind))
  | Durable.Store.Prepare { session; name; query } ->
    Result.Ok (Wire.Prepare { session; name; query })

(** [apply_replicated t m] — apply one already-durable mutation through
    the ordinary handlers, bypassing the role check and the WAL: the
    replica applier's entry point, and exactly what {!restore} does per
    record.  Replicas thereby run the same code recovery runs — not a
    parallel interpreter that could drift. *)
let apply_replicated t m =
  match request_of_mutation m with
  | Result.Error _ as e -> e
  | Result.Ok req -> (
    match handle ~internal:true t req with
    | Wire.Ok _ -> Result.Ok ()
    | Wire.Err e -> Result.Error e
    | Wire.Busy -> Result.Error "busy")

(** [restore t mutations] replays a recovered mutation list
    ([Durable.Store.recovery]) through {!apply_replicated} — recovery is
    the normal load path, not a second interpreter.  Must run before
    {!attach_store}, so the replay is not logged again.  Returns the
    count applied, or the first replay failure: a mutation that was
    acknowledged once cannot legally fail, so an error here means the
    log and the code disagree, and refusing to serve beats serving
    divergent answers. *)
let restore t mutations =
  let rec go i = function
    | [] -> Result.Ok i
    | m :: rest -> (
      match apply_replicated t m with
      | Result.Ok () -> go (i + 1) rest
      | Result.Error e -> Result.Error (Printf.sprintf "mutation %d: %s" (i + 1) e))
  in
  go 0 mutations

(** [attach_store t store] switches mutation logging on: every later
    acknowledged mutation is on disk before it is applied. *)
let attach_store t store = t.store <- Some store

(** [reset_sessions t] drops every session — the replica's RESET
    catch-up wipes its state before rebuilding from the primary's
    compacted stream.  Fingerprint-keyed service caches stay: their
    entries are pure functions of their keys. *)
let reset_sessions t =
  List.iter (fun name -> drop_session t ~session:name) (session_names t)

(** The attached store, if any — the server's drain path syncs and
    closes it. *)
let attached_store t = t.store
