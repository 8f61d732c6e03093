(* Crash-safe durability: CRC framing, failpoint specs, WAL scan rules
   (torn tail truncated, mid-log corruption refused), the store's
   append/snapshot/recover cycle — and the property the whole subsystem
   exists for: after ANY byte-level truncation of the WAL (and any
   single flipped byte), recovery restores exactly a prefix of the
   acknowledged mutations, byte-identical in its answers to a
   never-crashed oracle replaying that prefix — or fails loudly. *)

module Crc32 = Durable.Crc32
module Failpoint = Durable.Failpoint
module Io = Durable.Io
module Wal = Durable.Wal
module Store = Durable.Store
module Wire = Server.Wire
module Service = Server.Service

(* fresh scratch directories; recursive cleanup at the end is not worth
   the risk — the files are tiny and temp-dir scoped *)
let dir_counter = ref 0

let fresh_dir () =
  incr dir_counter;
  let dir =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "obda_durable_%d_%d" (Unix.getpid ()) !dir_counter)
  in
  (try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  dir

let registry () = Obs.Registry.create ()

let open_ok ?snapshot_every ?(group_commit = false) dir =
  match Store.open_dir ~registry:(registry ()) ?snapshot_every ~group_commit dir with
  | Result.Ok pair -> pair
  | Result.Error e -> Alcotest.fail e

(* ------------------------------- CRC-32 ------------------------------ *)

let test_crc_known_answer () =
  (* the IEEE 802.3 check value *)
  Alcotest.(check int) "123456789" 0xCBF43926 (Crc32.digest_string "123456789");
  Alcotest.(check int) "empty" 0 (Crc32.digest_string "")

let test_crc_incremental () =
  let s = "the quick brown fox jumps over the lazy dog" in
  let b = Bytes.of_string s in
  let once = Crc32.digest_bytes b ~pos:0 ~len:(Bytes.length b) in
  let split = Crc32.update (Crc32.update 0 b ~pos:0 ~len:10) b ~pos:10 ~len:(Bytes.length b - 10) in
  Alcotest.(check int) "update composes" once split

(* ----------------------------- failpoints ---------------------------- *)

let test_failpoint_specs () =
  let ok spec expect =
    match Failpoint.parse_spec spec with
    | Result.Ok got ->
      Alcotest.(check string)
        spec expect
        (match got with
         | None -> "off"
         | Some (a, after) ->
           Printf.sprintf "%s@%d" (Failpoint.string_of_action a) after)
    | Result.Error e -> Alcotest.fail (spec ^ ": " ^ e)
  in
  ok "error" "error@0";
  ok "crash" "crash@0";
  ok "off" "off";
  ok "partial:7" "partial:7@0";
  ok "delay:0.5" "delay:0.5@0";
  ok "error@3" "error@3";
  ok "partial:0@12" "partial:0@12";
  List.iter
    (fun bad ->
      match Failpoint.parse_spec bad with
      | Result.Ok _ -> Alcotest.fail (bad ^ " must be rejected")
      | Result.Error _ -> ())
    [ "boom"; "partial:"; "partial:-1"; "delay:x"; "error@"; "error@-2"; "" ]

let test_failpoint_fire_and_skip () =
  Failpoint.disarm_all ();
  (* arming rejects unknown site names loudly; synthetic test sites must
     be registered first *)
  Failpoint.register_site "t.x";
  Failpoint.register_site "t.w";
  Fun.protect ~finally:Failpoint.disarm_all @@ fun () ->
  Alcotest.(check bool) "unarmed proceeds" true (Failpoint.hit "t.x" = None);
  (match Failpoint.arm_spec "t.unknown" "error" with
   | Result.Ok () -> Alcotest.fail "unknown site must be rejected"
   | Result.Error _ -> ());
  Alcotest.check_raises "arm of unknown site raises"
    (Failpoint.Unknown_site "t.unknown") (fun () ->
      Failpoint.arm "t.unknown" (Failpoint.Inject_error));
  (* error with a skip-count of 2: two free passes, then every hit raises *)
  (match Failpoint.arm_spec "t.x" "error@2" with
   | Result.Ok () -> ()
   | Result.Error e -> Alcotest.fail e);
  Failpoint.check "t.x";
  Failpoint.check "t.x";
  Alcotest.check_raises "third hit" (Failpoint.Injected "t.x") (fun () ->
      Failpoint.check "t.x");
  Alcotest.check_raises "stays armed" (Failpoint.Injected "t.x") (fun () ->
      Failpoint.check "t.x");
  (match Failpoint.arm_spec "t.x" "off" with
   | Result.Ok () -> ()
   | Result.Error e -> Alcotest.fail e);
  Failpoint.check "t.x";
  (* partial hands its byte budget to the write site *)
  Failpoint.arm "t.w" (Failpoint.Partial 5);
  Alcotest.(check bool) "partial budget" true (Failpoint.hit "t.w" = Some 5)

let test_failpoint_env () =
  Failpoint.disarm_all ();
  Fun.protect
    ~finally:(fun () ->
      Unix.putenv "OBDA_FAILPOINTS" "";
      Failpoint.disarm_all ())
  @@ fun () ->
  Failpoint.register_site "a.b";
  Failpoint.register_site "c.d";
  Unix.putenv "OBDA_FAILPOINTS" "a.b=error@1, c.d=delay:0.01";
  (match Failpoint.arm_from_env () with
   | Result.Ok () -> ()
   | Result.Error e -> Alcotest.fail e);
  Alcotest.(check (list (pair string string)))
    "armed list"
    [ ("a.b", "error"); ("c.d", "delay:0.01") ]
    (Failpoint.armed_list ());
  Unix.putenv "OBDA_FAILPOINTS" "nonsense";
  match Failpoint.arm_from_env () with
  | Result.Ok () -> Alcotest.fail "malformed env must be rejected"
  | Result.Error _ -> ()

(* ------------------------------ WAL scan ----------------------------- *)

let wal_bytes payloads =
  Wal.encode_batch (List.mapi (fun i p -> (i + 1, p)) payloads)

(* scanned entries are exactly the first [k] payloads, for some [k] *)
let prefix_length scanned payloads =
  let rec go k = function
    | [], _ -> Some k
    | e :: es, p :: ps when e.Wal.payload = p && e.Wal.seq = k + 1 ->
      go (k + 1) (es, ps)
    | _ -> None
  in
  go 0 (scanned, payloads)

let test_wal_roundtrip () =
  let payloads = [ "alpha"; ""; "payload\nwith\nnewlines"; String.make 1000 'x' ] in
  let { Wal.entries; valid_bytes; torn_bytes } = Wal.scan (wal_bytes payloads) in
  Alcotest.(check (option int))
    "all entries, in order" (Some 4)
    (prefix_length entries payloads);
  Alcotest.(check int) "no torn tail" 0 torn_bytes;
  Alcotest.(check int)
    "every byte accounted for"
    (Bytes.length (wal_bytes payloads))
    valid_bytes

(* every possible truncation point: the scan yields an exact record
   prefix and never raises — a torn tail is a crash artifact, not
   corruption *)
let test_wal_truncation_exhaustive () =
  let payloads = [ "one"; "two-longer"; ""; "four" ] in
  let whole = wal_bytes payloads in
  for cut = 0 to Bytes.length whole do
    let { Wal.entries; valid_bytes; torn_bytes } =
      Wal.scan (Bytes.sub whole 0 cut)
    in
    (match prefix_length entries payloads with
     | Some _ -> ()
     | None -> Alcotest.failf "cut at %d: not a record prefix" cut);
    Alcotest.(check int)
      (Printf.sprintf "cut at %d accounted" cut)
      cut (valid_bytes + torn_bytes)
  done

let test_wal_midlog_corruption_refused () =
  let payloads = [ "aaaa"; "bbbb"; "cccc" ] in
  let whole = wal_bytes payloads in
  (* flip a payload byte of the FIRST record: framed bytes follow, so
     this is rot under an fsync'd prefix and must refuse *)
  Bytes.set whole 16 'Z';
  (match Wal.scan whole with
   | exception Wal.Corrupt _ -> ()
   | _ -> Alcotest.fail "mid-log corruption must raise");
  (* the same damage in the LAST record is indistinguishable from a torn
     append: truncate, keep the good prefix *)
  let whole = wal_bytes payloads in
  Bytes.set whole (Bytes.length whole - 1) 'Z';
  let { Wal.entries; torn_bytes; _ } = Wal.scan whole in
  Alcotest.(check (option int))
    "good prefix kept" (Some 2)
    (prefix_length entries payloads);
  Alcotest.(check bool) "tail dropped" true (torn_bytes > 0)

let prop_wal_flip_prefix_or_refuse =
  QCheck.Test.make ~count:300 ~name:"flipped byte: record prefix or Corrupt"
    QCheck.(triple (small_list small_string) small_nat (int_bound 7))
    (fun (payloads, pos, bit) ->
      QCheck.assume (payloads <> []);
      let whole = wal_bytes payloads in
      let pos = pos mod Bytes.length whole in
      Bytes.set whole pos
        (Char.chr (Char.code (Bytes.get whole pos) lxor (1 lsl bit)));
      match Wal.scan whole with
      | exception Wal.Corrupt _ -> true (* loud refusal *)
      | { Wal.entries; _ } -> prefix_length entries payloads <> None)

(* ------------------------------- store ------------------------------- *)

let m_load ?(session = "s") kind payload =
  Store.Load { session; kind; payload }

let m_prep name query = Store.Prepare { session = "s"; name; query }

let muts_equal = Alcotest.testable (fun fmt m ->
    Format.pp_print_string fmt
      (match m with
       | Store.Load { session; kind; payload } ->
         Printf.sprintf "L %s %s [%s]" session kind (String.concat "; " payload)
       | Store.Prepare { session; name; query } ->
         Printf.sprintf "P %s %s %s" session name query))
    ( = )

let test_store_roundtrip () =
  let dir = fresh_dir () in
  let muts =
    [
      m_load "TBOX" [ "concept A"; "concept B"; "A [= B" ];
      m_load "FACTS" [ "t(\"a\")" ];
      m_prep "q" "x <- B(x)";
    ]
  in
  let store, r0 = open_ok dir in
  Alcotest.(check (list muts_equal)) "fresh dir is empty" [] r0.Store.mutations;
  List.iter (fun m -> ignore (Store.append store m)) muts;
  Store.close store;
  let store, r = open_ok dir in
  Alcotest.(check (list muts_equal)) "replayed in order" muts r.Store.mutations;
  Alcotest.(check int) "no truncation" 0 r.Store.truncated_bytes;
  Store.close store

let test_store_snapshot_fence () =
  let dir = fresh_dir () in
  let store, _ = open_ok dir in
  let before = [ m_load "FACTS" [ "t(\"a\")" ]; m_load "FACTS" [ "t(\"b\")" ] ] in
  List.iter (fun m -> ignore (Store.append store m)) before;
  (* the compacted state replaces the WAL prefix; later appends live in
     the (reset) WAL and replay after it *)
  let compact = [ m_load "FACTS" [ "t(\"a\")"; "t(\"b\")" ] ] in
  Store.write_snapshot store compact;
  let after = m_load "FACTS" [ "t(\"c\")" ] in
  ignore (Store.append store after);
  Store.close store;
  let store, r = open_ok dir in
  Alcotest.(check (list muts_equal))
    "snapshot then wal tail" (compact @ [ after ]) r.Store.mutations;
  Alcotest.(check int) "snapshot records" 1 r.Store.snapshot_records;
  Alcotest.(check int) "wal records" 1 r.Store.wal_records;
  Store.close store

let test_store_failed_append_repair () =
  Failpoint.disarm_all ();
  Fun.protect ~finally:Failpoint.disarm_all @@ fun () ->
  let dir = fresh_dir () in
  let store, _ = open_ok dir in
  let m1 = m_load "FACTS" [ "t(\"1\")" ] in
  let m3 = m_load "FACTS" [ "t(\"3\")" ] in
  ignore (Store.append store m1);
  (* the record hits the file, then the pre-fsync failpoint fires: the
     append reports failure, so the mutation was never acknowledged and
     must not resurface after the repair *)
  Failpoint.arm "wal.append.before_fsync" Failpoint.Inject_error;
  (match Store.append store (m_load "FACTS" [ "t(\"2\")" ]) with
   | (_ : int) -> Alcotest.fail "append must surface the injected error"
   | exception Failpoint.Injected _ -> ());
  Failpoint.disarm "wal.append.before_fsync";
  ignore (Store.append store m3);
  Store.close store;
  let store, r = open_ok dir in
  Alcotest.(check (list muts_equal))
    "failed append leaves no trace" [ m1; m3 ] r.Store.mutations;
  Store.close store

(* a real torn write: fork, tear the append 5 bytes in via partial:5
   (the child _exit(137)s like kill -9), recover in the parent *)
let test_store_partial_write_crash () =
  let dir = fresh_dir () in
  let m1 = m_load "FACTS" [ "t(\"committed\")" ] in
  let store, _ = open_ok dir in
  ignore (Store.append store m1);
  Store.close store;
  (match Unix.fork () with
   | 0 ->
     Failpoint.arm "wal.append.write" (Failpoint.Partial 5);
     (match Store.open_dir ~registry:(registry ()) dir with
      | Result.Ok (store, _) ->
        (try ignore (Store.append store (m_load "FACTS" [ "t(\"torn\")" ]))
         with _ -> ());
        (* partial:5 must have crashed the process before this *)
        Unix._exit 1
      | Result.Error _ -> Unix._exit 2)
   | pid ->
     let _, status = Unix.waitpid [] pid in
     Alcotest.(check bool)
       "child died at the failpoint (exit 137)" true
       (status = Unix.WEXITED 137));
  let store, r = open_ok dir in
  Alcotest.(check (list muts_equal))
    "acknowledged prefix only" [ m1 ] r.Store.mutations;
  Alcotest.(check int) "5 torn bytes dropped" 5 r.Store.truncated_bytes;
  (* the truncation is physical: reopening again finds a clean log *)
  ignore (Store.append store (m_load "FACTS" [ "t(\"after\")" ]));
  Store.close store;
  let store, r = open_ok dir in
  Alcotest.(check int) "clean after repair" 0 r.Store.truncated_bytes;
  Alcotest.(check int) "two records" 2 (List.length r.Store.mutations);
  Store.close store

(* --------------------------- group commit ---------------------------- *)

let concurrent_roundtrip ~group_commit () =
  let dir = fresh_dir () in
  let store, _ = open_ok ~group_commit dir in
  let sessions = 4 and per_session = 25 in
  let writer i () =
    for j = 0 to per_session - 1 do
      ignore
        (Store.append store
           (m_load ~session:(Printf.sprintf "s%d" i) "FACTS"
              [ Printf.sprintf "t(\"w%d_%d\")" i j ]))
    done
  in
  let threads = List.init sessions (fun i -> Thread.create (writer i) ()) in
  List.iter Thread.join threads;
  Store.close store;
  let store, r = open_ok dir in
  Alcotest.(check int) "every append recovered"
    (sessions * per_session)
    (List.length r.Store.mutations);
  Alcotest.(check int) "no truncation" 0 r.Store.truncated_bytes;
  (* per-writer order is commit order: each writer's own records must
     come back in its program order, whatever the interleaving *)
  List.iteri
    (fun i _ ->
      let mine =
        List.filter_map
          (function
            | Store.Load { session; payload = [ p ]; _ }
              when session = Printf.sprintf "s%d" i -> Some p
            | _ -> None)
          r.Store.mutations
      in
      Alcotest.(check (list string))
        (Printf.sprintf "writer %d in order" i)
        (List.init per_session (fun j -> Printf.sprintf "t(\"w%d_%d\")" i j))
        mine)
    (List.init sessions Fun.id);
  Store.close store

let test_store_group_failed_append_repair () =
  (* the group path must keep the single-append failure contract: an
     injected error fails the batch, nothing of it resurfaces, and the
     committer keeps serving later appends *)
  Failpoint.disarm_all ();
  Fun.protect ~finally:Failpoint.disarm_all @@ fun () ->
  let dir = fresh_dir () in
  let store, _ = open_ok ~group_commit:true dir in
  let m1 = m_load "FACTS" [ "t(\"1\")" ] in
  let m3 = m_load "FACTS" [ "t(\"3\")" ] in
  ignore (Store.append store m1);
  Failpoint.arm "wal.append.before_fsync" Failpoint.Inject_error;
  (match Store.append store (m_load "FACTS" [ "t(\"2\")" ]) with
   | (_ : int) -> Alcotest.fail "append must surface the injected error"
   | exception Failpoint.Injected _ -> ());
  Failpoint.disarm "wal.append.before_fsync";
  ignore (Store.append store m3);
  Store.close store;
  let store, r = open_ok dir in
  Alcotest.(check (list muts_equal))
    "failed batch leaves no trace" [ m1; m3 ] r.Store.mutations;
  Alcotest.(check int) "no truncation on reopen" 0 r.Store.truncated_bytes;
  Store.close store

(* ----------------------- refusals on both schedulers ----------------- *)

let schedulers = [ ("direct", false); ("group", true) ]

(* a refused append never comes back: not after a clean close, on either
   scheduler, wherever in the commit the fault lands — before the write,
   between write and fsync, or after the fsync *)
let test_store_refused_append_never_returns () =
  Failpoint.disarm_all ();
  Fun.protect ~finally:Failpoint.disarm_all @@ fun () ->
  List.iter
    (fun (scheduler, group_commit) ->
      List.iter
        (fun site ->
          let dir = fresh_dir () in
          let store, _ = open_ok ~group_commit dir in
          let m1 = m_load "FACTS" [ "t(\"1\")" ] in
          ignore (Store.append store m1);
          Failpoint.arm site Failpoint.Inject_error;
          (match Store.append store (m_load "FACTS" [ "t(\"2\")" ]) with
           | (_ : int) -> Alcotest.failf "%s/%s: append must fail" scheduler site
           | exception Failpoint.Injected _ -> ());
          Failpoint.disarm site;
          Store.close store;
          let store, r = open_ok dir in
          Alcotest.(check (list muts_equal))
            (Printf.sprintf "%s/%s: only the acknowledged record" scheduler site)
            [ m1 ] r.Store.mutations;
          Store.close store)
        [ "wal.append.before"; "wal.append.before_fsync"; "wal.append.after_fsync" ])
    schedulers

(* the replication fence is the last durable record: a refused
   [append_raw] must not move it, or a re-subscribing replica would skip
   the refused record for good *)
let test_store_refused_append_raw_keeps_fence () =
  Failpoint.disarm_all ();
  Fun.protect ~finally:Failpoint.disarm_all @@ fun () ->
  List.iter
    (fun (scheduler, group_commit) ->
      let dir = fresh_dir () in
      let store, _ = open_ok ~group_commit dir in
      let p1 = Store.encode_mutation (m_load "FACTS" [ "t(\"1\")" ]) in
      let p2 = Store.encode_mutation (m_load "FACTS" [ "t(\"2\")" ]) in
      Store.append_raw store ~seq:1 p1;
      Failpoint.arm "wal.append.before_fsync" Failpoint.Inject_error;
      (match Store.append_raw store ~seq:2 p2 with
       | () -> Alcotest.failf "%s: append_raw must fail" scheduler
       | exception Failpoint.Injected _ -> ());
      Failpoint.disarm_all ();
      Alcotest.(check int) (scheduler ^ ": fence stays") 1 (Store.last_seq store);
      (* the redelivered record is accepted and moves the fence *)
      Store.append_raw store ~seq:2 p2;
      Alcotest.(check int) (scheduler ^ ": redelivery lands") 2
        (Store.last_seq store);
      Store.close store)
    schedulers

(* --------------------- service-level crash property ------------------ *)

(* The end-to-end contract: apply a random mutation sequence through a
   durable service, damage the WAL (truncate anywhere / flip one byte),
   recover, and the recovered service answers byte-identically to a
   never-crashed oracle that applied exactly the surviving acknowledged
   prefix — or recovery refuses loudly. *)

let request_of_mutation = function
  | Store.Load { session; kind; payload } ->
    let kind =
      match Wire.kind_of_string kind with
      | Some k -> k
      | None -> Alcotest.fail ("bad kind " ^ kind)
    in
    Wire.Load { session; kind; payload }
  | Store.Prepare { session; name; query } ->
    Wire.Prepare { session; name; query }

let apply_all service muts =
  List.iter
    (fun m ->
      match Service.handle service (request_of_mutation m) with
      | Wire.Ok _ -> ()
      | Wire.Err e -> Alcotest.fail ("apply: " ^ e)
      | Wire.Busy -> Alcotest.fail "apply: busy")
    muts

let probe_queries =
  [ "x <- B(x)"; "x <- A(x)"; "x <- t(x)"; "x, y <- r(x, y)" ]

let probe service =
  List.map
    (fun q ->
      Service.handle service (Wire.Ask { session = "s"; query = Wire.Inline q }))
    probe_queries

let gen_mutations rng =
  let n = 3 + Random.State.int rng 12 in
  List.init n (fun i ->
      match Random.State.int rng 6 with
      | 0 ->
        m_load "TBOX" [ "concept A"; "concept B"; "role r"; "A [= B" ]
      | 1 ->
        m_load "TBOX"
          [ "concept A"; "concept B"; "role r"; "A [= B"; "exists r [= A" ]
      | 2 | 3 ->
        m_load "FACTS"
          [ Printf.sprintf "t(\"c%d\")" (Random.State.int rng 5) ]
      | 4 ->
        m_load "FACTS"
          [
            Printf.sprintf "r(\"c%d\", \"c%d\")" (Random.State.int rng 4) i;
            Printf.sprintf "c$A(\"c%d\")" (Random.State.int rng 4);
          ]
      | _ -> m_prep (Printf.sprintf "q%d" (Random.State.int rng 3)) "x <- B(x)")

let recovers_exact_prefix ~flip seed =
  let rng = Random.State.make [| seed |] in
  let muts = gen_mutations rng in
  let dir = fresh_dir () in
  (* the durable run: every mutation acknowledged is in the WAL *)
  let store, _ = open_ok dir in
  let service = Service.create ~config:{ Service.Config.default with lru = 8 } ~registry:(registry ()) () in
  Service.attach_store service store;
  apply_all service muts;
  Store.close store;
  (* damage *)
  let wal = Filename.concat dir "wal" in
  let content =
    let fd = Unix.openfile wal [ Unix.O_RDONLY ] 0 in
    Fun.protect ~finally:(fun () -> Unix.close fd) (fun () -> Io.read_all fd)
  in
  let damaged =
    if flip then begin
      let b = Bytes.copy content in
      let pos = Random.State.int rng (Bytes.length b) in
      Bytes.set b pos
        (Char.chr (Char.code (Bytes.get b pos) lxor (1 lsl Random.State.int rng 8)));
      b
    end
    else Bytes.sub content 0 (Random.State.int rng (Bytes.length content + 1))
  in
  let fd = Unix.openfile wal [ Unix.O_WRONLY; Unix.O_TRUNC ] 0o644 in
  Fun.protect
    ~finally:(fun () -> Unix.close fd)
    (fun () -> Io.write_all fd damaged ~pos:0 ~len:(Bytes.length damaged));
  (* recover *)
  match Store.open_dir ~registry:(registry ()) dir with
  | Result.Error _ -> flip  (* loud refusal: only corruption may do this *)
  | Result.Ok (store, r) ->
    Store.close store;
    let k = List.length r.Store.mutations in
    let rec take n = function
      | x :: rest when n > 0 -> x :: take (n - 1) rest
      | _ -> []
    in
    if r.Store.mutations <> take k muts then false
    else begin
      let recovered = Service.create ~config:{ Service.Config.default with lru = 8 } ~registry:(registry ()) () in
      (match Service.restore recovered r.Store.mutations with
       | Result.Ok applied when applied = k -> ()
       | _ -> Alcotest.fail "restore failed on a valid prefix");
      let oracle = Service.create ~config:{ Service.Config.default with lru = 8 } ~registry:(registry ()) () in
      apply_all oracle (take k muts);
      probe recovered = probe oracle
    end

let prop_truncated_wal_recovers =
  QCheck.Test.make ~count:60 ~name:"truncated WAL -> exact acked prefix"
    QCheck.(int_bound 1_000_000)
    (fun seed -> recovers_exact_prefix ~flip:false seed)

let prop_flipped_wal_recovers_or_refuses =
  QCheck.Test.make ~count:60 ~name:"flipped byte -> exact prefix or refusal"
    QCheck.(int_bound 1_000_000)
    (fun seed -> recovers_exact_prefix ~flip:true seed)

(* ---------------- kill -9 in the middle of a BULK stream ------------- *)

(* The streaming-ingestion contract: one chunk = one atomic WAL record.
   A process killed dead mid-stream (straight SIGKILL between chunks,
   or a torn write inside a chunk's append) must recover to exactly the
   acknowledged chunk prefix — the torn chunk is truncated away, and an
   acknowledged chunk can never be lost because acknowledgement follows
   the fsync. *)
let kill9_during_bulk seed =
  let rng = Random.State.make [| seed |] in
  let n_chunks = 2 + Random.State.int rng 7 in
  let chunks =
    List.init n_chunks (fun i ->
        List.init
          (1 + Random.State.int rng 2)
          (fun j -> Printf.sprintf "t(\"bulk%d_%d\")" i j))
  in
  let kill_at = Random.State.int rng n_chunks in
  let torn = Random.State.bool rng in
  let dir = fresh_dir () in
  let tbox = m_load "TBOX" [ "concept A"; "role r" ] in
  let r_pipe, w_pipe = Unix.pipe () in
  match Unix.fork () with
  | 0 ->
    Unix.close r_pipe;
    (match Store.open_dir ~registry:(registry ()) ~group_commit:true dir with
     | Result.Error _ -> Unix._exit 2
     | Result.Ok (store, _) ->
       let service =
         Service.create ~config:{ Service.Config.default with lru = 8 }
           ~registry:(registry ()) ()
       in
       Service.attach_store service store;
       (match Service.handle service (request_of_mutation tbox) with
        | Wire.Ok _ -> ()
        | _ -> Unix._exit 3);
       List.iteri
         (fun i payload ->
           if i = kill_at then
             if torn then Failpoint.arm "wal.append.write" (Failpoint.Partial 7)
             else Unix.kill (Unix.getpid ()) Sys.sigkill;
           match
             Service.handle service (Wire.Bulk_chunk { session = "s"; payload })
           with
           | Wire.Ok _ -> ignore (Unix.write w_pipe (Bytes.make 1 'a') 0 1)
           | _ -> Unix._exit 4)
         chunks;
       (* the kill always fires before the stream completes *)
       Unix._exit 5)
  | pid ->
    Unix.close w_pipe;
    (* one byte per acknowledged chunk; EOF when the child dies *)
    let acked = ref 0 in
    let buf = Bytes.create 16 in
    let rec drain () =
      match Unix.read r_pipe buf 0 16 with
      | 0 -> ()
      | k ->
        acked := !acked + k;
        drain ()
    in
    drain ();
    Unix.close r_pipe;
    let _, status = Unix.waitpid [] pid in
    let died_hard =
      match status with
      | Unix.WSIGNALED s -> s = Sys.sigkill
      | Unix.WEXITED 137 -> true (* torn write: simulated kill -9 *)
      | _ -> false
    in
    if not died_hard then false
    else begin
      match Store.open_dir ~registry:(registry ()) dir with
      | Result.Error _ -> false (* a kill is not corruption *)
      | Result.Ok (store, r) ->
        Store.close store;
        let rec take n = function
          | x :: rest when n > 0 -> x :: take (n - 1) rest
          | _ -> []
        in
        let expected =
          tbox
          :: List.map
               (fun payload -> m_load "FACTS" payload)
               (take !acked chunks)
        in
        (* exactly the acknowledged prefix: the crash always lands
           before the next chunk's fsync, so nothing unacknowledged can
           have reached the disk whole *)
        r.Store.mutations = expected
    end

let prop_kill9_during_bulk =
  QCheck.Test.make ~count:20 ~name:"kill -9 mid-BULK -> acked chunk prefix"
    QCheck.(int_bound 1_000_000)
    kill9_during_bulk

(* ---------------------- durable service round-trip ------------------- *)

let test_service_recovery_roundtrip () =
  let dir = fresh_dir () in
  let store, _ = open_ok dir in
  let service = Service.create ~config:{ Service.Config.default with lru = 8 } ~registry:(registry ()) () in
  Service.attach_store service store;
  apply_all service
    [
      m_load "TBOX" [ "concept A"; "concept B"; "role r"; "A [= B" ];
      m_load "MAPPINGS" [ "map A(x) <- src(x, y)" ];
      m_load "FACTS" [ "src(\"a\", \"1\")"; "src(\"b\", \"2\")" ];
      m_load "ABOX" [ "r(c, d)" ];
      m_prep "q" "x <- B(x)";
    ];
  let before =
    match Service.handle service (Wire.Ask { session = "s"; query = Wire.Named "q" }) with
    | Wire.Ok lines -> lines
    | _ -> Alcotest.fail "ask before crash"
  in
  Alcotest.(check (list string)) "mapped answers" [ "a"; "b" ] before;
  (* with mappings installed, answers flow only through unfolding — the
     directly inserted ABox row is invisible by engine semantics.  Probe
     the live service so recovery is held to *its* answer, whatever the
     semantics says it is. *)
  let before_abox =
    match
      Service.handle service
        (Wire.Ask { session = "s"; query = Wire.Inline "x, y <- r(x, y)" })
    with
    | Wire.Ok lines -> lines
    | _ -> Alcotest.fail "abox ask before crash"
  in
  Store.close store;
  let store, r = open_ok dir in
  let recovered = Service.create ~config:{ Service.Config.default with lru = 8 } ~registry:(registry ()) () in
  (match Service.restore recovered r.Store.mutations with
   | Result.Ok 5 -> ()
   | Result.Ok n -> Alcotest.failf "replayed %d of 5" n
   | Result.Error e -> Alcotest.fail e);
  Service.attach_store recovered store;
  (match Service.handle recovered (Wire.Ask { session = "s"; query = Wire.Named "q" }) with
   | Wire.Ok lines -> Alcotest.(check (list string)) "prepared query survives" before lines
   | _ -> Alcotest.fail "ask after recovery");
  (match
     Service.handle recovered
       (Wire.Ask { session = "s"; query = Wire.Inline "x, y <- r(x, y)" })
   with
   | Wire.Ok lines ->
     Alcotest.(check (list string)) "abox answer preserved" before_abox lines
   | _ -> Alcotest.fail "abox ask after recovery");
  Store.close store

(* the compacted snapshot replays to the same state the WAL would have *)
let test_service_snapshot_compaction () =
  let dir = fresh_dir () in
  (* snapshot_every 4: the 5-mutation script triggers a snapshot, so
     recovery replays compact records (plus any WAL tail), not history *)
  let store, _ = open_ok ~snapshot_every:4 dir in
  let service = Service.create ~config:{ Service.Config.default with lru = 8 } ~registry:(registry ()) () in
  Service.attach_store service store;
  apply_all service
    [
      m_load "TBOX" [ "concept OldA" ];
      m_load "TBOX" [ "concept A"; "concept B"; "role r"; "A [= B" ];
      m_load "MAPPINGS" [ "map A(x) <- src(x, y)" ];
      m_load "FACTS" [ "src(\"a\", \"1\")" ];
      m_load "ABOX" [ "A(direct)" ];
    ];
  let before =
    match
      Service.handle service
        (Wire.Ask { session = "s"; query = Wire.Inline "x <- B(x)" })
    with
    | Wire.Ok lines -> lines
    | _ -> Alcotest.fail "ask before close"
  in
  Store.close store;
  let store, r = open_ok dir in
  Alcotest.(check bool) "state was compacted" true (r.Store.snapshot_records > 0);
  let recovered = Service.create ~config:{ Service.Config.default with lru = 8 } ~registry:(registry ()) () in
  (match Service.restore recovered r.Store.mutations with
   | Result.Ok _ -> ()
   | Result.Error e -> Alcotest.fail e);
  Service.attach_store recovered store;
  (match
     Service.handle recovered
       (Wire.Ask { session = "s"; query = Wire.Inline "x <- B(x)" })
   with
   | Wire.Ok lines ->
     Alcotest.(check (list string)) "compacted state answers" before lines
   | Wire.Err e -> Alcotest.fail e
   | Wire.Busy -> Alcotest.fail "busy");
  Store.close store

(* a WAL refusal surfaces as ERR and leaves no partial application *)
let test_service_wal_refusal_is_err () =
  Failpoint.disarm_all ();
  Fun.protect ~finally:Failpoint.disarm_all @@ fun () ->
  let dir = fresh_dir () in
  let store, _ = open_ok dir in
  let service = Service.create ~config:{ Service.Config.default with lru = 8 } ~registry:(registry ()) () in
  Service.attach_store service store;
  apply_all service
    [
      m_load "TBOX" [ "concept A"; "concept B"; "A [= B" ];
      m_load "ABOX" [ "A(a)" ];
    ];
  Failpoint.arm "wal.append.before" Failpoint.Inject_error;
  (match
     Service.handle service
       (Wire.Load { session = "s"; kind = Wire.K_abox; payload = [ "A(b)" ] })
   with
   | Wire.Err _ -> ()
   | _ -> Alcotest.fail "refused append must ERR");
  Failpoint.disarm_all ();
  (match
     Service.handle service
       (Wire.Ask { session = "s"; query = Wire.Inline "x <- A(x)" })
   with
   | Wire.Ok lines ->
     Alcotest.(check (list string)) "rejected mutation not applied" [ "a" ] lines
   | _ -> Alcotest.fail "ask");
  Store.close store

(* the refused mutation stays refused across a restart *)
let test_service_wal_refusal_survives_restart () =
  Failpoint.disarm_all ();
  Fun.protect ~finally:Failpoint.disarm_all @@ fun () ->
  let dir = fresh_dir () in
  let store, _ = open_ok dir in
  let service = Service.create ~config:{ Service.Config.default with lru = 8 } ~registry:(registry ()) () in
  Service.attach_store service store;
  apply_all service
    [
      m_load "TBOX" [ "concept A"; "concept B"; "A [= B" ];
      m_load "ABOX" [ "A(a)" ];
    ];
  Failpoint.arm "wal.append.before_fsync" Failpoint.Inject_error;
  (match
     Service.handle service
       (Wire.Load { session = "s"; kind = Wire.K_abox; payload = [ "A(b)" ] })
   with
   | Wire.Err _ -> ()
   | _ -> Alcotest.fail "refused append must ERR");
  Failpoint.disarm_all ();
  Store.close store;
  let store, r = open_ok dir in
  let recovered = Service.create ~config:{ Service.Config.default with lru = 8 } ~registry:(registry ()) () in
  (match Service.restore recovered r.Store.mutations with
   | Result.Ok _ -> ()
   | Result.Error e -> Alcotest.fail e);
  (match
     Service.handle recovered
       (Wire.Ask { session = "s"; query = Wire.Inline "x <- A(x)" })
   with
   | Wire.Ok lines ->
     Alcotest.(check (list string)) "refused mutation not recovered" [ "a" ] lines
   | _ -> Alcotest.fail "ask");
  Store.close store

(* a refused first mutation leaves no session behind: not live, not in
   STATS, not in a snapshot, not after recovery *)
let mentions_session name lines =
  List.exists
    (fun line ->
      List.exists
        (fun label -> label = "session=" ^ name)
        (String.split_on_char ','
           (match String.split_on_char ' ' line with _ :: l :: _ -> l | _ -> "")))
    lines

let test_refused_first_mutation ~group_commit () =
  Failpoint.disarm_all ();
  Fun.protect ~finally:Failpoint.disarm_all @@ fun () ->
  let dir = fresh_dir () in
  let store, _ = open_ok ~group_commit dir in
  let service = Service.create ~config:{ Service.Config.default with lru = 8 } ~registry:(registry ()) () in
  Service.attach_store service store;
  apply_all service [ m_load "TBOX" [ "concept A" ] ];
  let refused what request =
    match Service.handle service request with
    | Wire.Err _ -> ()
    | _ -> Alcotest.failf "%s must be refused" what
  in
  Failpoint.arm "wal.append.before_fsync" Failpoint.Inject_error;
  refused "WAL-refused TBOX"
    (Wire.Load { session = "t"; kind = Wire.K_tbox; payload = [ "concept B" ] });
  Failpoint.disarm_all ();
  refused "malformed TBOX"
    (Wire.Load { session = "u"; kind = Wire.K_tbox; payload = [ "A [= [=" ] });
  refused "malformed PREPARE"
    (Wire.Prepare { session = "u"; name = "q"; query = "x <- " });
  refused "malformed BULK chunk"
    (Wire.Bulk_chunk { session = "u"; payload = [ "not a fact" ] });
  Alcotest.(check (list string)) "live sessions" [ "s" ] (Service.session_names service);
  (match Service.handle service (Wire.Stats None) with
   | Wire.Ok lines ->
     Alcotest.(check bool) "STATS names no refused session" false
       (mentions_session "t" lines || mentions_session "u" lines)
   | _ -> Alcotest.fail "stats");
  Service.snapshot_now service;
  Store.close store;
  let store, r = open_ok ~group_commit dir in
  let recovered = Service.create ~config:{ Service.Config.default with lru = 8 } ~registry:(registry ()) () in
  (match Service.restore recovered r.Store.mutations with
   | Result.Ok _ -> ()
   | Result.Error e -> Alcotest.fail e);
  Alcotest.(check (list string)) "recovered sessions" [ "s" ]
    (Service.session_names recovered);
  Store.close store

(* two first loads racing on one fresh session both land, also when a
   refused one may have created the session first *)
let test_racing_first_loads () =
  let service = Service.create ~config:{ Service.Config.default with lru = 8 } ~registry:(registry ()) () in
  for i = 1 to 50 do
    let session = Printf.sprintf "r%d" i in
    let load fact () =
      match
        Service.handle service
          (Wire.Load { session; kind = Wire.K_facts; payload = [ fact ] })
      with
      | Wire.Ok _ -> ()
      | _ -> Alcotest.fail "first FACTS load refused"
    in
    let malformed () =
      ignore
        (Service.handle service
           (Wire.Load { session; kind = Wire.K_tbox; payload = [ "A [= [=" ] }))
    in
    let threads =
      Thread.create malformed ()
      :: List.map (fun f -> Thread.create (load f) ())
           [ "src(\"a\")"; "src(\"b\")" ]
    in
    List.iter Thread.join threads;
    match Service.handle service (Wire.Stats (Some session)) with
    | Wire.Ok lines ->
      Alcotest.(check bool) (session ^ " holds both rows") true
        (List.mem
           (Printf.sprintf "obda_session_facts session=%s 2" session)
           lines)
    | _ -> Alcotest.fail "stats"
  done

(* ------------------------------ line I/O ----------------------------- *)

(* The byte-at-a-time line reader that [Io.read_line] was before it
   gained its one-copy fast path, run over a string: the oracle for the
   fast path and its fallback.  A CR directly before a newline is
   stripped, a line past [max_line] is cut to [max_line + 1] bytes, a
   final unterminated line still counts. *)
let oracle_lines ~max_line s =
  let n = String.length s and pos = ref 0 in
  let read_line () =
    let acc = Buffer.create 16 in
    let add c = if Buffer.length acc <= max_line then Buffer.add_char acc c in
    let rec go ~pending_cr =
      if !pos >= n then begin
        if pending_cr then add '\r';
        if Buffer.length acc = 0 then None else Some (Buffer.contents acc)
      end
      else begin
        let c = s.[!pos] in
        incr pos;
        match c with
        | '\n' -> Some (Buffer.contents acc)
        | '\r' ->
          if pending_cr then add '\r';
          go ~pending_cr:true
        | c ->
          if pending_cr then add '\r';
          add c;
          go ~pending_cr:false
      end
    in
    go ~pending_cr:false
  in
  let rec all acc =
    match read_line () with None -> List.rev acc | Some l -> all (l :: acc)
  in
  all []

(* [s] sent over a socketpair by a writer thread in chunks of the given
   sizes (cycled), then the write side shut down; [f] reads the other
   end through a 7-byte reader, so lines straddle refills *)
let with_chunked_stream s chunks f =
  let a, b = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  let sizes = Array.of_list (if chunks = [] then [ 1 ] else chunks) in
  let writer () =
    let rec go pos k =
      if pos < String.length s then begin
        let len = min (String.length s - pos) sizes.(k mod Array.length sizes) in
        Io.write_string a (String.sub s pos len);
        go (pos + len) (k + 1)
      end
    in
    go 0 0;
    Unix.shutdown a Unix.SHUTDOWN_SEND
  in
  let th = Thread.create writer () in
  Fun.protect
    ~finally:(fun () ->
      Thread.join th;
      Unix.close a;
      Unix.close b)
    (fun () -> f (Io.reader ~buf_size:7 b))

let read_to_end ~max_line r =
  let rec go acc =
    match Io.read_line r ~max_line with
    | None -> List.rev acc
    | Some l -> go (l :: acc)
  in
  go []

(* the reader agrees with the oracle line for line, and a counted read
   one line past the end of the stream is a truncated payload *)
let reads_like_oracle s chunks =
  List.for_all
    (fun max_line ->
      let expected = oracle_lines ~max_line s in
      let n = List.length expected in
      with_chunked_stream s chunks (read_to_end ~max_line) = expected
      && with_chunked_stream s chunks (fun r -> Io.read_lines r ~max_line n)
         = Some expected
      && with_chunked_stream s chunks (fun r -> Io.read_lines r ~max_line (n + 1))
         = None)
    [ 3; 1 lsl 20 ]

let prop_read_line_is_byte_loop =
  QCheck.Test.make ~count:300 ~name:"read_line = byte loop"
    (QCheck.make
       ~print:(fun (s, chunks) ->
         Printf.sprintf "%S in chunks of %s" s
           (String.concat "," (List.map string_of_int chunks)))
       QCheck.Gen.(
         pair
           (string_size ~gen:(oneofl [ 'a'; ','; '\r'; '\n' ]) (0 -- 80))
           (list_size (1 -- 6) (1 -- 9))))
    (fun (s, chunks) -> reads_like_oracle s chunks)

let test_read_line_edges () =
  List.iter
    (fun (s, chunks) ->
      Alcotest.(check bool) (Printf.sprintf "%S" s) true (reads_like_oracle s chunks))
    [
      ("", [ 1 ]);
      ("\n\n\n", [ 1 ]);
      ("ab\r\ncd\r\n", [ 3 ]);  (* CR at a chunk edge *)
      ("ab\r", [ 3 ]);  (* a CR that ends the stream is content *)
      ("a\r\r\n\rb\n", [ 2; 5 ]);
      ("abcdefgh\nab", [ 4 ]);  (* over max_line, then unterminated *)
      ("abcdef\r\n", [ 9 ]);
      ("abcdefghijklmnopq\r\nxy\n", [ 2 ]);  (* straddles two refills *)
    ]

let old_framing lines = String.concat "" (List.map (fun l -> l ^ "\n") lines)

let written_bytes lines =
  let a, b = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Io.write_lines a lines;
  Unix.close a;
  let got = Bytes.to_string (Io.read_all b) in
  Unix.close b;
  got

let prop_write_lines_is_old_framing =
  QCheck.Test.make ~count:200 ~name:"write_lines = per-line framing"
    QCheck.(list_of_size Gen.(0 -- 20) (string_of_size Gen.(0 -- 12)))
    (fun lines ->
      let expected = old_framing lines in
      written_bytes lines = expected
      && Bytes.to_string (Io.frame_lines lines) = expected)

let test_write_lines_edges () =
  List.iter
    (fun lines ->
      Alcotest.(check string)
        (Printf.sprintf "%d line(s)" (List.length lines))
        (old_framing lines) (written_bytes lines))
    [ []; [ "" ]; [ ""; "" ]; [ "OK 2"; ""; "a\r" ] ]

(* -------------------------------- suite ------------------------------ *)

let () =
  Alcotest.run "durable"
    [
      ( "io",
        [
          QCheck_alcotest.to_alcotest prop_read_line_is_byte_loop;
          Alcotest.test_case "read_line edge cases" `Quick test_read_line_edges;
          QCheck_alcotest.to_alcotest prop_write_lines_is_old_framing;
          Alcotest.test_case "write_lines edge cases" `Quick test_write_lines_edges;
        ] );
      ( "crc32",
        [
          Alcotest.test_case "known answer" `Quick test_crc_known_answer;
          Alcotest.test_case "incremental" `Quick test_crc_incremental;
        ] );
      ( "failpoint",
        [
          Alcotest.test_case "spec grammar" `Quick test_failpoint_specs;
          Alcotest.test_case "fire and skip" `Quick test_failpoint_fire_and_skip;
          Alcotest.test_case "env arming" `Quick test_failpoint_env;
        ] );
      ( "wal",
        [
          Alcotest.test_case "roundtrip" `Quick test_wal_roundtrip;
          Alcotest.test_case "truncation exhaustive" `Quick
            test_wal_truncation_exhaustive;
          Alcotest.test_case "mid-log corruption refused" `Quick
            test_wal_midlog_corruption_refused;
          QCheck_alcotest.to_alcotest prop_wal_flip_prefix_or_refuse;
        ] );
      ( "store",
        [
          Alcotest.test_case "roundtrip" `Quick test_store_roundtrip;
          Alcotest.test_case "snapshot fence" `Quick test_store_snapshot_fence;
          Alcotest.test_case "failed append repair" `Quick
            test_store_failed_append_repair;
          Alcotest.test_case "partial write + crash" `Quick
            test_store_partial_write_crash;
          Alcotest.test_case "group commit concurrent roundtrip" `Quick
            (concurrent_roundtrip ~group_commit:true);
          Alcotest.test_case "direct concurrent roundtrip" `Quick
            (concurrent_roundtrip ~group_commit:false);
          Alcotest.test_case "group commit failed append repair" `Quick
            test_store_group_failed_append_repair;
          Alcotest.test_case "refused append never comes back" `Quick
            test_store_refused_append_never_returns;
          Alcotest.test_case "refused append_raw keeps the fence" `Quick
            test_store_refused_append_raw_keeps_fence;
        ] );
      ( "service-recovery",
        [
          Alcotest.test_case "roundtrip" `Quick test_service_recovery_roundtrip;
          Alcotest.test_case "snapshot compaction" `Quick
            test_service_snapshot_compaction;
          Alcotest.test_case "WAL refusal is ERR" `Quick
            test_service_wal_refusal_is_err;
          Alcotest.test_case "WAL refusal survives restart" `Quick
            test_service_wal_refusal_survives_restart;
          Alcotest.test_case "refused first mutation leaves no session" `Quick
            (test_refused_first_mutation ~group_commit:false);
          Alcotest.test_case "group commit refused first mutation leaves no session"
            `Quick
            (test_refused_first_mutation ~group_commit:true);
          Alcotest.test_case "racing first loads both land" `Quick
            test_racing_first_loads;
        ] );
      ( "crash-property",
        [
          QCheck_alcotest.to_alcotest prop_truncated_wal_recovers;
          QCheck_alcotest.to_alcotest prop_flipped_wal_recovers_or_refuses;
          QCheck_alcotest.to_alcotest prop_kill9_during_bulk;
        ] );
    ]
