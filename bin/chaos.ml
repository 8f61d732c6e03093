(* Chaos harness for the durable server: spawn a server on a scratch
   data directory, feed it a randomized mutation script, kill it dead —
   [kill -9], or a crash failpoint armed in the durable commit path via
   the FAIL wire verb — then restart on the same directory and check
   that the recovered state answers exactly like the acknowledged
   prefix of the script.  Some rounds instead arm an [error] site: the
   server keeps running but refuses every append from then on, and
   the refused mutations must not come back after the closing kill.

   The oracle is the in-process [Server.Service] this binary links: the
   same wire requests the server acknowledged are replayed into it, and
   a battery of probe queries must answer identically over the wire and
   in process.  A crash can land between the WAL fsync and the reply,
   so the recovered state is allowed to equal either the acknowledged
   prefix or that prefix plus the single in-flight mutation — anything
   else is a divergence and the harness exits non-zero.

   This is a test tool: it spawns servers with --chaos and arms real
   crash failpoints.  Never point it at a data directory you care
   about. *)

open Cmdliner

module Wire = Server.Wire
module Client = Server.Client
module Service = Server.Service

(* ------------------------- mutation scripts -------------------------- *)

let tbox_payloads =
  [|
    [ "concept A"; "concept B"; "role r"; "A [= B" ];
    [ "concept A"; "concept B"; "concept C"; "role r"; "A [= B"; "B [= C" ];
    [ "concept A"; "concept B"; "role r"; "exists r [= B" ];
  |]

let fact_payloads =
  [| [ "src(\"a\", \"1\")" ]; [ "src(\"b\", \"2\")"; "src(\"c\", \"3\")" ] |]

let abox_payloads = [| [ "A(x1)" ]; [ "B(y1)"; "r(y1, y2)" ]; [ "r(p, q)" ] |]

let mapping_payloads = [| [ "map A(x) <- src(x, y)" ] |]

let prepare_pool =
  [| ("q1", "x <- A(x)"); ("q2", "x <- B(x)"); ("q3", "x, y <- r(x, y)") |]

let pick rng a = a.(Random.State.int rng (Array.length a))

(* every generated request is valid — the first one is always a TBOX,
   and every payload below parses under any TBOX in the pool.  A
   refused load is durably a no-op, while the crashed process may have
   auto-created the session in memory; keeping the script refusal-free
   keeps "acknowledged prefix" well-defined, and leaves an armed error
   site as the only source of an ERR. *)
let gen_request rng session =
  match Random.State.int rng 10 with
  | 0 | 1 -> Wire.Load { session; kind = Wire.K_tbox; payload = pick rng tbox_payloads }
  | 2 | 3 -> Wire.Load { session; kind = Wire.K_facts; payload = pick rng fact_payloads }
  | 4 | 5 | 6 -> Wire.Load { session; kind = Wire.K_abox; payload = pick rng abox_payloads }
  | 7 -> Wire.Load { session; kind = Wire.K_mappings; payload = pick rng mapping_payloads }
  | _ ->
    let name, query = pick rng prepare_pool in
    Wire.Prepare { session; name; query }

let probes session =
  List.concat_map
    (fun q ->
      [ Wire.Ask { session; query = Wire.Inline q } ])
    [ "x <- A(x)"; "x <- B(x)"; "x, y <- r(x, y)"; "x <- src(x, \"1\")" ]
  @ Array.to_list
      (Array.map
         (fun (name, _) -> Wire.Ask { session; query = Wire.Named name })
         prepare_pool)

(* fault sites in the durable commit path; each round arms one with a
   random skip count, so over many rounds every site is hit at every
   depth of the script.  An [error] site refuses every append from its
   firing on (the server answers [ERR wal: ...] and stays up) until the
   round's closing kill -9: the refused mutations must not come back. *)
let fault_sites =
  [|
    ("wal.append.before", "crash");
    ("wal.append.write", "partial:5");
    ("wal.append.write", "partial:17");
    ("wal.append.before_fsync", "crash");
    ("wal.append.after_fsync", "crash");
    ("snapshot.before_rename", "crash");
    ("wal.append.before_fsync", "error");
    ("wal.append.after_fsync", "error");
  |]

(* --------------------------- child control --------------------------- *)

let spawn_server ?(group_commit = false) ~exe ~sock ~data_dir
    ~snapshot_every () =
  let args =
    [
      exe; "--unix"; sock; "--data-dir"; data_dir; "--chaos";
      "--snapshot-every"; string_of_int snapshot_every; "--jobs"; "1";
    ]
    @ (if group_commit then [ "--group-commit" ] else [])
  in
  let null = Unix.openfile "/dev/null" [ Unix.O_WRONLY ] 0 in
  let pid =
    Unix.create_process exe (Array.of_list args) Unix.stdin null Unix.stderr
  in
  Unix.close null;
  pid

let wait_listening sock =
  let deadline = Unix.gettimeofday () +. 10.0 in
  let rec go () =
    match Client.connect ("unix:" ^ sock) with
    | Result.Ok conn -> conn
    | Result.Error _ when Unix.gettimeofday () < deadline ->
      Thread.delay 0.05;
      go ()
    | Result.Error e -> failwith ("server did not come up: " ^ e)
  in
  go ()

let reap pid =
  match Unix.waitpid [] pid with
  | _, Unix.WEXITED n -> Printf.sprintf "exit %d" n
  | _, Unix.WSIGNALED n -> Printf.sprintf "signal %d" n
  | _, Unix.WSTOPPED n -> Printf.sprintf "stopped %d" n
  | exception Unix.Unix_error (Unix.ECHILD, _, _) -> "already reaped"

let kill_dead pid =
  (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
  ignore (reap pid)

let stop_gracefully pid =
  (try Unix.kill pid Sys.sigterm with Unix.Unix_error _ -> ());
  ignore (reap pid)

(* ------------------------------ a round ------------------------------ *)

let string_of_reply = function
  | Wire.Ok lines -> "OK " ^ String.concat " | " lines
  | Wire.Err e -> "ERR " ^ e
  | Wire.Busy -> "BUSY"

let rm_rf dir = ignore (Sys.command (Printf.sprintf "rm -rf %s" (Filename.quote dir)))

(* recovered server vs oracle(s): every probe must answer identically
   over the wire and in process; returns the divergence count *)
let probe_divergences ~round conn2 oracle oracle_next plist =
  let divergences = ref 0 in
  List.iter
    (fun probe ->
      let wire =
        match Client.request conn2 probe with
        | Result.Ok reply -> string_of_reply reply
        | Result.Error e -> "TRANSPORT " ^ e
      in
      let local = string_of_reply (Service.handle oracle probe) in
      let next = Option.map (fun o -> string_of_reply (Service.handle o probe)) oracle_next in
      if wire <> local && Some wire <> next then begin
        incr divergences;
        Printf.printf "round %d DIVERGED on %s\n  recovered: %s\n  acked:     %s%s\n"
          round
          (string_of_reply (Wire.Ok (Wire.encode_request probe)))
          wire local
          (match next with
           | Some n -> "\n  acked+1:   " ^ n
           | None -> "")
      end)
    plist;
  !divergences

(* arm one of [sites] over the wire with a random skip count; returns
   the round's log label *)
let arm_fault rng conn sites =
  let site, spec = pick rng sites in
  let skip = Random.State.int rng 4 in
  (match
     Client.request conn
       (Wire.Fail { name = site; spec = Printf.sprintf "%s@%d" spec skip })
   with
  | Result.Ok (Wire.Ok _) -> ()
  | r ->
    failwith
      ("FAIL verb rejected: "
      ^ (match r with
        | Result.Ok reply -> string_of_reply reply
        | Result.Error e -> e)));
  if spec = "error" then Printf.sprintf "error at %s, then kill -9" site
  else "failpoint crash"

(* replay acknowledged wire requests into an in-process Service *)
let build_oracle reqs =
  let s = Service.create ~registry:(Obs.Registry.create ()) () in
  List.iter (fun r -> ignore (Service.handle s r)) reqs;
  s

(* returns the number of divergent probes *)
let run_round ~exe ~scratch ~snapshot_every rng round =
  let session = "chaos" in
  let data_dir = Filename.concat scratch (Printf.sprintf "round%d" round) in
  rm_rf data_dir;
  let sock = Filename.concat scratch (Printf.sprintf "sock%d" round) in
  (try Sys.remove sock with Sys_error _ -> ());
  let pid = spawn_server ~exe ~sock ~data_dir ~snapshot_every () in
  let conn = wait_listening sock in
  (* choose the failure: a fault site armed over the wire, or a plain
     SIGKILL from outside after a random number of mutations *)
  let script_len = 4 + Random.State.int rng 8 in
  let sigkill_after, fault =
    if Random.State.int rng 3 = 0 then
      let k = Random.State.int rng script_len in
      (Some k, Printf.sprintf "sigkill@%d" k)
    else (None, arm_fault rng conn fault_sites)
  in
  (* drive the script, tracking what was acknowledged *)
  let acked = ref [] and in_flight = ref None in
  (try
     for i = 0 to script_len - 1 do
       (match sigkill_after with
        | Some k when i = k -> kill_dead pid
        | _ -> ());
       let req =
         if i = 0 then
           Wire.Load
             { session; kind = Wire.K_tbox; payload = pick rng tbox_payloads }
         else gen_request rng session
       in
       in_flight := Some req;
       match Client.request conn req with
       | Result.Ok (Wire.Ok _) ->
         acked := req :: !acked;
         in_flight := None
       | Result.Ok (Wire.Err _ | Wire.Busy) ->
         (* the scripts are refusal-free, so an ERR is the armed error
            site refusing the WAL append ([ERR wal: ...]) — or, after a
            refused TBOX, a load that no longer validates against the
            session left empty in memory.  Neither was applied, and
            neither may replay. *)
         in_flight := None
       | Result.Error _ -> raise Exit
     done
   with Exit -> ());
  Client.close conn;
  (* the server must be dead by now — if the armed failpoint never
     fired (skip deeper than the script wrote), put it down ourselves
     and discard the in-flight slot (there is none) *)
  let died_on_its_own = !in_flight <> None || sigkill_after <> None in
  kill_dead pid;
  let acked = List.rev !acked in
  (* restart clean on the same directory *)
  let pid2 = spawn_server ~exe ~sock ~data_dir ~snapshot_every () in
  let conn2 = wait_listening sock in
  (* oracles: acknowledged prefix, and prefix + the in-flight mutation *)
  let oracle = build_oracle acked in
  let oracle_next =
    match !in_flight with
    | Some req when died_on_its_own -> Some (build_oracle (acked @ [ req ]))
    | _ -> None
  in
  let divergences =
    probe_divergences ~round conn2 oracle oracle_next (probes session)
  in
  Client.close conn2;
  stop_gracefully pid2;
  Printf.printf "round %d: %d/%d acked, %s, %d divergence(s)\n%!" round
    (List.length acked) script_len fault divergences;
  divergences

(* ---------------------- a mid-bulk-stream round ---------------------- *)

(* the script is a protocol-v2 BULK stream killed mid-flight (kill -9
   from outside, or a crash failpoint in the WAL append path, so torn
   chunk tails are exercised too).  Atomicity is per chunk: the
   recovered server must answer exactly like the acknowledged chunk
   prefix, or that prefix plus the single in-flight chunk.  The server
   runs with --group-commit so the batched fsync path is the one under
   fire. *)
let run_bulk_round ~exe ~scratch ~snapshot_every rng round =
  let session = "chaos" in
  let data_dir = Filename.concat scratch (Printf.sprintf "bulk%d" round) in
  rm_rf data_dir;
  let sock = Filename.concat scratch (Printf.sprintf "bsock%d" round) in
  (try Sys.remove sock with Sys_error _ -> ());
  let pid =
    spawn_server ~group_commit:true ~exe ~sock ~data_dir ~snapshot_every ()
  in
  let conn = wait_listening sock in
  (match Client.hello conn with
  | Result.Ok (v, _) when v >= 2 -> ()
  | Result.Ok (v, _) -> failwith (Printf.sprintf "server granted v%d, need v2" v)
  | Result.Error e -> failwith ("HELLO failed: " ^ e));
  let tbox =
    Wire.Load { session; kind = Wire.K_tbox; payload = tbox_payloads.(0) }
  in
  (match Client.request conn tbox with
  | Result.Ok (Wire.Ok _) -> ()
  | Result.Ok reply -> failwith ("TBOX load failed: " ^ string_of_reply reply)
  | Result.Error e -> failwith ("TBOX load failed: " ^ e));
  (* every chunk lands facts the src probe sees, so a lost or phantom
     chunk shows up as a divergent answer set *)
  let n_chunks = 4 + Random.State.int rng 8 in
  let chunk i =
    List.init
      (1 + Random.State.int rng 3)
      (fun j -> Printf.sprintf "src(\"r%dc%df%d\", \"1\")" round i j)
  in
  let sigkill_after, fault =
    if Random.State.int rng 2 = 0 then
      let k = Random.State.int rng n_chunks in
      (Some k, Printf.sprintf "sigkill@%d" k)
    else (None, arm_fault rng conn fault_sites)
  in
  let acked = ref [] and in_flight = ref None in
  (try
     for i = 0 to n_chunks - 1 do
       (match sigkill_after with
       | Some k when i = k -> kill_dead pid
       | _ -> ());
       let req = Wire.Bulk_chunk { session; payload = chunk i } in
       in_flight := Some req;
       match Client.request conn req with
       | Result.Ok (Wire.Ok _) ->
         acked := req :: !acked;
         in_flight := None
       | Result.Ok (Wire.Err _ | Wire.Busy) ->
         (* an ERR is the armed error site refusing the chunk's WAL
            append: never applied, so it must never replay *)
         in_flight := None
       | Result.Error _ -> raise Exit
     done
   with Exit -> ());
  Client.close conn;
  let died_on_its_own = !in_flight <> None || sigkill_after <> None in
  kill_dead pid;
  let acked_chunks = List.length !acked in
  (* the stream never ENDed: the oracle replays the acked chunks and
     then ABORTs, which keeps the applied chunks (per-chunk atomicity)
     and closes the stream, matching the recovered server where the
     stream died with its connection *)
  let acked = List.rev !acked in
  let script prefix = (tbox :: prefix) @ [ Wire.Bulk_abort { session } ] in
  let pid2 = spawn_server ~exe ~sock ~data_dir ~snapshot_every () in
  let conn2 = wait_listening sock in
  let oracle = build_oracle (script acked) in
  let oracle_next =
    match !in_flight with
    | Some req when died_on_its_own ->
      Some (build_oracle (script (acked @ [ req ])))
    | _ -> None
  in
  let divergences =
    probe_divergences ~round conn2 oracle oracle_next (probes session)
  in
  Client.close conn2;
  stop_gracefully pid2;
  Printf.printf "bulk round %d: %d/%d chunks acked, %s, %d divergence(s)\n%!"
    round acked_chunks n_chunks fault divergences;
  divergences

(* --------------------------- cluster rounds --------------------------- *)

(* One primary + two replicas on scratch directories.  Feed the primary
   a script (mixed mutations, or BULK chunks with --bulk), kill it dead
   mid-script — SIGKILL from outside, a WAL crash failpoint, or a torn
   replication frame (partial write on repl.send.record) — then promote
   the best replica and check three things:

     1. the promoted replica answers exactly like the acknowledged
        prefix (or prefix + the single in-flight mutation — the ack can
        race the kill);
     2. the surviving replica re-points at the new primary and
        converges to the same answers;
     3. the fenced ex-primary rejoins as a replica of the new timeline,
        its unreplicated WAL suffix is discarded by the epoch-mismatch
        RESET, and it converges too.

   The failover time (kill acknowledged → promoted node serving as
   primary) is recorded per round and summarized as p50/p95. *)

module Harness = Cluster.Harness

let cluster_crash_sites =
  [|
    ("wal.append.before", "crash");
    ("wal.append.write", "partial:5");
    ("wal.append.after_fsync", "crash");
    ("repl.send.record", "partial:7");
    ("repl.send.record", "partial:23");
  |]

(* raw REPL STATUS against one endpoint: returns the k=v pairs *)
let repl_status ep =
  match Client.connect ep with
  | Result.Error e -> Result.Error e
  | Result.Ok conn ->
    Fun.protect
      ~finally:(fun () -> Client.close conn)
      (fun () ->
        match Client.hello ~version:3 conn with
        | Result.Error e -> Result.Error e
        | Result.Ok _ -> (
          match Client.ok_payload (Client.request conn Wire.Repl_status) with
          | Result.Error e -> Result.Error e
          | Result.Ok [ line ] ->
            Result.Ok
              (String.split_on_char ' ' line
              |> List.filter_map (fun tok ->
                     match String.index_opt tok '=' with
                     | None -> None
                     | Some i ->
                       Some
                         ( String.sub tok 0 i,
                           String.sub tok (i + 1) (String.length tok - i - 1) )))
          | Result.Ok _ -> Result.Error "malformed STATUS reply"))

let wait_subscribers ep n ~timeout =
  let deadline = Unix.gettimeofday () +. timeout in
  let rec go () =
    let ok =
      match repl_status ep with
      | Result.Ok kv -> (
        match List.assoc_opt "subscribers" kv with
        | Some s -> (match int_of_string_opt s with
                     | Some k -> k >= n
                     | None -> false)
        | None -> false)
      | Result.Error _ -> false
    in
    if ok then true
    else if Unix.gettimeofday () < deadline then begin
      Thread.delay 0.05;
      go ()
    end
    else false
  in
  go ()

(* probe [ep] until its answers match one of the oracles or the
   deadline passes; returns the divergence count of the last attempt *)
let converge ~round ~who ep oracle oracle_next plist ~timeout =
  let deadline = Unix.gettimeofday () +. timeout in
  let quiet_probe () =
    match Client.connect ep with
    | Result.Error _ -> None
    | Result.Ok conn ->
      Fun.protect
        ~finally:(fun () -> Client.close conn)
        (fun () ->
          let diverged = ref false in
          List.iter
            (fun probe ->
              let wire =
                match Client.request conn probe with
                | Result.Ok reply -> string_of_reply reply
                | Result.Error e -> "TRANSPORT " ^ e
              in
              let local = string_of_reply (Service.handle oracle probe) in
              let next =
                Option.map
                  (fun o -> string_of_reply (Service.handle o probe))
                  oracle_next
              in
              if wire <> local && Some wire <> next then diverged := true)
            plist;
          Some !diverged)
  in
  let rec go () =
    match quiet_probe () with
    | Some false -> 0
    | (Some true | None) when Unix.gettimeofday () < deadline ->
      Thread.delay 0.1;
      go ()
    | _ -> (
      (* final, loud attempt for the autopsy *)
      match Client.connect ep with
      | Result.Error e ->
        Printf.printf "round %d: %s unreachable: %s\n" round who e;
        1
      | Result.Ok conn ->
        Fun.protect
          ~finally:(fun () -> Client.close conn)
          (fun () ->
            Printf.printf "round %d: %s did not converge:\n" round who;
            probe_divergences ~round conn oracle oracle_next plist))
  in
  go ()

let percentile sorted p =
  match Array.length sorted with
  | 0 -> 0.0
  | n -> sorted.(min (n - 1) (int_of_float (ceil (p *. float_of_int n)) - 1))

let run_cluster_round ~exe ~scratch ~snapshot_every ~bulk rng round times =
  let session = "chaos" in
  let mk name i =
    let dir = Filename.concat scratch (Printf.sprintf "c%d-%s%d" round name i) in
    rm_rf dir;
    let sock = Filename.concat scratch (Printf.sprintf "c%d-%s%d.sock" round name i) in
    (try Sys.remove sock with Sys_error _ -> ());
    (sock, dir)
  in
  let p_sock, p_dir = mk "p" 0 in
  let r1_sock, r1_dir = mk "r" 1 in
  let r2_sock, r2_dir = mk "r" 2 in
  let eps = [ "unix:" ^ p_sock; "unix:" ^ r1_sock; "unix:" ^ r2_sock ] in
  let p_ep = List.nth eps 0 and r1_ep = List.nth eps 1 and r2_ep = List.nth eps 2 in
  let spawn ~sock ~dir ?replica_of () =
    Harness.spawn ~exe ~sock ~data_dir:dir ~group_commit:bulk ~snapshot_every
      ?replica_of ~cluster:eps ()
  in
  let primary = spawn ~sock:p_sock ~dir:p_dir () in
  let rep1 = spawn ~sock:r1_sock ~dir:r1_dir ~replica_of:p_ep () in
  let rep2 = spawn ~sock:r2_sock ~dir:r2_dir ~replica_of:p_ep () in
  let conn = Harness.wait_listening primary in
  ignore (Harness.wait_listening rep1);
  ignore (Harness.wait_listening rep2);
  (* every acked write must be covered by the semi-sync barrier, so do
     not start writing before both replicas are subscribed *)
  if not (wait_subscribers p_ep 2 ~timeout:10.0) then
    failwith "replicas did not subscribe";
  (match Client.hello conn with
   | Result.Ok (v, _) when v >= 3 -> ()
   | Result.Ok (v, _) -> failwith (Printf.sprintf "server granted v%d, need v3" v)
   | Result.Error e -> failwith ("HELLO failed: " ^ e));
  let tbox =
    Wire.Load { session; kind = Wire.K_tbox; payload = tbox_payloads.(0) }
  in
  (match Client.request conn tbox with
   | Result.Ok (Wire.Ok _) -> ()
   | _ -> failwith "TBOX load failed");
  let script_len = 4 + Random.State.int rng 8 in
  let sigkill_after, fault =
    if Random.State.int rng 3 = 0 then
      let k = Random.State.int rng script_len in
      (Some k, Printf.sprintf "sigkill@%d" k)
    else (None, arm_fault rng conn cluster_crash_sites)
  in
  let chunk i =
    List.init
      (1 + Random.State.int rng 3)
      (fun j -> Printf.sprintf "src(\"r%dc%df%d\", \"1\")" round i j)
  in
  let acked = ref [ tbox ] and in_flight = ref None in
  (try
     for i = 0 to script_len - 1 do
       (match sigkill_after with
        | Some k when i = k -> Harness.kill_dead primary
        | _ -> ());
       let req =
         if bulk then Wire.Bulk_chunk { session; payload = chunk i }
         else gen_request rng session
       in
       in_flight := Some req;
       match Client.request conn req with
       | Result.Ok (Wire.Ok _ | Wire.Err _) ->
         acked := req :: !acked;
         in_flight := None
       | Result.Ok Wire.Busy -> in_flight := None
       | Result.Error _ -> raise Exit
     done
   with Exit -> ());
  Client.close conn;
  let died_on_its_own = !in_flight <> None || sigkill_after <> None in
  Harness.kill_dead primary;
  (* ------------------------- failover window ------------------------ *)
  let t0 = Unix.gettimeofday () in
  let promoted_ep, _epoch =
    match Cluster.Node.promote_best [ r1_ep; r2_ep ] with
    | Result.Ok (ep, e) -> (ep, e)
    | Result.Error e -> failwith ("promotion failed: " ^ e)
  in
  if not (Harness.wait_role ~timeout:10.0 promoted_ep "primary") then
    failwith "promoted node did not become primary";
  let failover_s = Unix.gettimeofday () -. t0 in
  times := failover_s :: !times;
  let other_ep = if promoted_ep = r1_ep then r2_ep else r1_ep in
  (* ----------------------------- oracles ---------------------------- *)
  let acked = List.rev !acked in
  let script prefix =
    if bulk then prefix @ [ Wire.Bulk_abort { session } ] else prefix
  in
  let oracle = build_oracle (script acked) in
  let oracle_next =
    match !in_flight with
    | Some req when died_on_its_own ->
      Some (build_oracle (script (acked @ [ req ])))
    | _ -> None
  in
  let plist = probes session in
  let d_promoted =
    converge ~round ~who:"promoted replica" promoted_ep oracle oracle_next
      plist ~timeout:10.0
  in
  (* the survivor re-resolves the primary on its own and catches up *)
  let d_survivor =
    converge ~round ~who:"surviving replica" other_ep oracle oracle_next plist
      ~timeout:15.0
  in
  (* --------------------- ex-primary rejoins fenced ------------------- *)
  let rejoined =
    Harness.spawn ~exe ~sock:p_sock ~data_dir:p_dir ~group_commit:bulk
      ~snapshot_every ~replica_of:promoted_ep ~cluster:eps ()
  in
  ignore (Harness.wait_listening rejoined);
  let d_rejoin =
    converge ~round ~who:"rejoined ex-primary" p_ep oracle oracle_next plist
      ~timeout:15.0
  in
  (* the rejoined node must be a replica of the new timeline, and the
     new primary must still accept writes *)
  let d_roles =
    if not (Harness.wait_role ~timeout:10.0 p_ep "replica") then begin
      Printf.printf "round %d: ex-primary did not rejoin as replica\n" round;
      1
    end
    else 0
  in
  let d_writes =
    match Client.connect promoted_ep with
    | Result.Error e ->
      Printf.printf "round %d: promoted primary unreachable: %s\n" round e;
      1
    | Result.Ok c ->
      Fun.protect
        ~finally:(fun () -> Client.close c)
        (fun () ->
          match
            Client.request c
              (Wire.Load
                 {
                   session;
                   kind = Wire.K_facts;
                   payload = [ Printf.sprintf "src(\"post%d\", \"1\")" round ];
                 })
          with
          | Result.Ok (Wire.Ok _) -> 0
          | r ->
            Printf.printf "round %d: post-failover write refused: %s\n" round
              (match r with
               | Result.Ok reply -> string_of_reply reply
               | Result.Error e -> "TRANSPORT " ^ e);
            1)
  in
  let divergences = d_promoted + d_survivor + d_rejoin + d_roles + d_writes in
  List.iter Harness.kill_dead [ rejoined; rep1; rep2 ];
  Printf.printf
    "cluster round %d: %d/%d acked, %s, failover %.3fs, %d divergence(s)\n%!"
    round
    (List.length acked - 1)
    script_len fault failover_s divergences;
  divergences

let run_cluster exe rounds seed snapshot_every bulk keep =
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let scratch =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "obda-chaos-cluster-%d" (Unix.getpid ()))
  in
  rm_rf scratch;
  Unix.mkdir scratch 0o755;
  let rng = Random.State.make [| seed |] in
  let total = ref 0 in
  let times = ref [] in
  for round = 1 to rounds do
    total :=
      !total
      + run_cluster_round ~exe ~scratch ~snapshot_every ~bulk rng round times
  done;
  if not keep then rm_rf scratch;
  let sorted = Array.of_list (List.sort compare !times) in
  if Array.length sorted > 0 then
    Printf.printf "failover: p50 %.3fs p95 %.3fs over %d promotion(s)\n"
      (percentile sorted 0.50) (percentile sorted 0.95) (Array.length sorted);
  if !total = 0 then begin
    Printf.printf "chaos: %d cluster round(s), zero divergences\n" rounds;
    0
  end
  else begin
    Printf.printf "chaos: %d divergence(s) over %d cluster round(s)%s\n" !total
      rounds
      (if keep then "; scratch kept at " ^ scratch else "");
    1
  end

let run exe rounds seed snapshot_every bulk cluster keep =
  if cluster then run_cluster exe rounds seed snapshot_every bulk keep
  else begin
  (* writes race the kill -9 by design; a dead peer must surface as
     EPIPE on the request, not kill the harness *)
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let scratch =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "obda-chaos-%d" (Unix.getpid ()))
  in
  rm_rf scratch;
  Unix.mkdir scratch 0o755;
  let rng = Random.State.make [| seed |] in
  let total = ref 0 in
  let round_fn = if bulk then run_bulk_round else run_round in
  for round = 1 to rounds do
    total := !total + round_fn ~exe ~scratch ~snapshot_every rng round
  done;
  if not keep then rm_rf scratch;
  if !total = 0 then begin
    Printf.printf "chaos: %d round(s), zero divergences\n" rounds;
    0
  end
  else begin
    Printf.printf "chaos: %d divergence(s) over %d round(s)%s\n" !total rounds
      (if keep then "; scratch kept at " ^ scratch else "");
    1
  end
  end

let () =
  let exe_arg =
    Arg.(value & opt string "_build/default/bin/obda_server.exe"
         & info [ "server" ] ~docv:"EXE" ~doc:"Path to the obda_server binary.")
  in
  let rounds_arg =
    Arg.(value & opt int 10
         & info [ "rounds" ] ~docv:"N" ~doc:"Crash/recover rounds to run.")
  in
  let seed_arg =
    Arg.(value & opt int 42 & info [ "seed" ] ~docv:"SEED" ~doc:"RNG seed.")
  in
  let snapshot_arg =
    Arg.(value & opt int 5
         & info [ "snapshot-every" ] ~docv:"N"
             ~doc:"Snapshot cadence passed to the server under test.")
  in
  let bulk_arg =
    Arg.(value & flag
         & info [ "bulk" ]
             ~doc:"Kill the server mid-BULK-stream (protocol v2, group \
                   commit) instead of running the mixed mutation script.")
  in
  let cluster_arg =
    Arg.(value & flag
         & info [ "cluster" ]
             ~doc:"Replication mode: 1 primary + 2 replicas; kill -9 the \
                   primary mid-script, promote the best replica, and check \
                   the promoted node serves exactly the acked prefix, the \
                   survivor re-points, and the fenced ex-primary rejoins \
                   and converges.  Composes with --bulk.")
  in
  let keep_arg =
    Arg.(value & flag
         & info [ "keep" ] ~doc:"Keep scratch data directories for autopsy.")
  in
  let info =
    Cmd.info "chaos"
      ~doc:"Kill-9/restart loop against the durable server; exits non-zero \
            on any recovery divergence."
  in
  exit
    (Cmd.eval'
       (Cmd.v info
          Term.(
            const run $ exe_arg $ rounds_arg $ seed_arg $ snapshot_arg
            $ bulk_arg $ cluster_arg $ keep_arg)))
