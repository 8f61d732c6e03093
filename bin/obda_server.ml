(* The OBDA query server: a Service behind TCP and/or Unix-domain
   listeners.  SIGTERM / SIGINT trigger a graceful shutdown — listeners
   close, in-flight requests drain, and the drain count is reported —
   so process supervisors get clean restarts.

   With --data-dir the server is durable: session mutations are written
   to a checksummed WAL (fsync before acknowledge) with periodic
   snapshot compaction, and on startup the directory is recovered —
   snapshot plus surviving WAL tail — before any listener opens.
   --chaos additionally accepts the FAIL wire verb, letting a test
   harness arm named failpoints in the durable commit path; the
   OBDA_FAILPOINTS environment variable arms the same failpoints
   without any wire access. *)

open Cmdliner

let run unix_path tcp_port host workers queue timeout lru slow_log
    data_dir snapshot_every snapshot_bytes group_commit chaos replica_of
    cluster_members advertise =
  if unix_path = None && tcp_port = None then begin
    prerr_endline "error: need at least one of --unix PATH / --tcp PORT";
    exit 2
  end;
  let cluster_members =
    match cluster_members with
    | None -> []
    | Some spec ->
      String.split_on_char ',' spec
      |> List.map String.trim
      |> List.filter (fun s -> s <> "")
  in
  let clustered = replica_of <> None || cluster_members <> [] in
  if clustered && data_dir = None then begin
    prerr_endline "error: --replica-of / --cluster require --data-dir";
    exit 2
  end;
  (match Durable.Failpoint.arm_from_env () with
   | Result.Ok () -> ()
   | Result.Error e ->
     Printf.eprintf "error: OBDA_FAILPOINTS: %s\n" e;
     exit 2);
  (* block before spawning anything: domains and threads inherit the
     mask, making the wait_signal below the one delivery point *)
  ignore (Unix.sigprocmask Unix.SIG_BLOCK [ Sys.sigterm; Sys.sigint ]);
  (* every service-level knob funnels into one Config record here — the
     only place flags and Service wiring meet *)
  let service_config =
    {
      Server.Service.Config.lru;
      slow_log_s = (match slow_log with Some s -> s | None -> infinity);
      chaos;
    }
  in
  let service = Server.Service.create ~config:service_config () in
  let snapshot_exec = ref None in
  let node = ref None in
  Option.iter
    (fun dir ->
      (try
         if not (Sys.file_exists dir) then Unix.mkdir dir 0o755
       with Unix.Unix_error (e, _, _) ->
         Printf.eprintf "error: --data-dir %s: %s\n" dir (Unix.error_message e);
         exit 2);
      match
        Durable.Store.open_dir
          ~registry:(Server.Service.registry service)
          ~group_commit ?snapshot_every ?snapshot_bytes dir
      with
      | Result.Error e ->
        Printf.eprintf "error: cannot recover %s: %s\n" dir e;
        exit 1
      | Result.Ok (store, r) ->
        (match Server.Service.restore service r.Durable.Store.mutations with
         | Result.Error e ->
           Printf.eprintf "error: replay of %s failed: %s\n" dir e;
           exit 1
         | Result.Ok replayed ->
           Server.Service.attach_store service store;
           (* snapshot compaction runs off the request path, on its own
              single-worker executor: a byte- or count-triggered
              snapshot no longer stalls the mutation that tripped it *)
           let exec =
             Parallel.Executor.create
               ~registry:(Server.Service.registry service) ~workers:1
               ~queue_capacity:1 ()
           in
           snapshot_exec := Some exec;
           Server.Service.set_snapshot_executor service exec;
           Printf.printf
             "recovered %s: %d mutation(s) (%d snapshot + %d wal), %d torn \
              byte(s) dropped, %.3fs%s\n%!"
             dir replayed r.Durable.Store.snapshot_records
             r.Durable.Store.wal_records r.Durable.Store.truncated_bytes
             r.Durable.Store.seconds
             (if group_commit then " [group commit]" else "");
           if clustered then begin
             (* the advertised endpoint defaults to the unix listener —
                it is what refusals and STATUS hand to failover clients *)
             let self =
               match advertise with
               | Some ep -> ep
               | None -> (
                 match unix_path with
                 | Some p -> "unix:" ^ p
                 | None -> "")
             in
             let role =
               match replica_of with
               | Some seed -> Cluster.Node.Replica_of seed
               | None -> Cluster.Node.Primary
             in
             let n =
               Cluster.Node.create
                 ~registry:(Server.Service.registry service) ~service ~store
                 ~endpoint:self ~members:cluster_members ~role ()
             in
             node := Some n;
             Printf.printf "cluster: %s, epoch %d, members [%s]\n%!"
               (match role with
                | Cluster.Node.Primary -> "primary"
                | Cluster.Node.Replica_of ep -> "replica of " ^ ep)
               (Cluster.Node.epoch n)
               (String.concat ", " cluster_members)
           end))
    data_dir;
  let config =
    {
      Server.Serve.default_config with
      workers;
      queue_capacity = queue;
      request_timeout_s = timeout;
    }
  in
  let repl_hooks = Option.map Cluster.Node.serve_hooks !node in
  let srv = Server.Serve.create ~config ?repl_hooks service in
  Option.iter
    (fun path ->
      ignore (Server.Serve.listen_unix srv path);
      Printf.printf "listening on unix:%s\n%!" path)
    unix_path;
  Option.iter
    (fun port ->
      let bound = Server.Serve.listen_tcp srv ~host ~port in
      Printf.printf "listening on tcp:%s:%d\n%!" host bound)
    tcp_port;
  Printf.printf "workers=%d queue=%d timeout=%.1fs lru=%d proto=v%d\n%!"
    workers queue timeout lru Server.Wire.max_version;
  Server.Serve.start srv;
  (* all worker domains / handler threads inherit the blocked mask set
     below, so TERM and INT are delivered to exactly this sigwait *)
  ignore (Thread.wait_signal [ Sys.sigterm; Sys.sigint ]);
  print_endline "shutting down: draining in-flight requests...";
  (* sever replication first: a replica stops applying, a primary stops
     shipping, before the listeners drain *)
  Option.iter Cluster.Node.stop !node;
  (* retire the snapshot executor first: any in-flight compaction
     finishes while the store is still open; snapshots requested during
     the request drain are shed (the next boot compacts instead) *)
  (match !snapshot_exec with
   | Some exec ->
     ignore (Parallel.Executor.close exec);
     Parallel.Executor.resume exec;
     Parallel.Executor.drain exec;
     Parallel.Executor.shutdown exec
   | None -> ());
  let in_flight = Server.Serve.stop srv in
  Printf.printf "drained %d in-flight request(s); bye\n%!" in_flight;
  Option.iter
    (fun path -> try Unix.unlink path with Unix.Unix_error _ -> ())
    unix_path

let () =
  let unix_arg =
    Arg.(value & opt (some string) None
         & info [ "unix" ] ~docv:"PATH" ~doc:"Listen on a Unix-domain socket.")
  in
  let tcp_arg =
    Arg.(value & opt (some int) None
         & info [ "tcp" ] ~docv:"PORT" ~doc:"Listen on a TCP port (0 = ephemeral).")
  in
  let host_arg =
    Arg.(value & opt string "127.0.0.1"
         & info [ "host" ] ~docv:"HOST" ~doc:"TCP bind address.")
  in
  let workers_arg =
    Arg.(value & opt int 2
         & info [ "jobs"; "j" ] ~docv:"N" ~doc:"Executor worker domains.")
  in
  let queue_arg =
    Arg.(value & opt int 64
         & info [ "queue" ] ~docv:"N"
             ~doc:"Admission queue bound; excess requests are answered BUSY.")
  in
  let timeout_arg =
    Arg.(value & opt float 30.0
         & info [ "timeout" ] ~docv:"SECONDS" ~doc:"Per-request timeout.")
  in
  let lru_arg =
    Arg.(value & opt int 256
         & info [ "lru" ] ~docv:"N" ~doc:"LRU capacity of the service caches.")
  in
  let slow_log_arg =
    Arg.(value & opt (some float) None
         & info [ "slow-log" ] ~docv:"SECONDS"
             ~doc:"Warn-log any operation or trace span slower than this \
                   threshold (default: disabled).")
  in
  let data_dir_arg =
    Arg.(value & opt (some string) None
         & info [ "data-dir" ] ~docv:"DIR"
             ~doc:"Durable session store: WAL + snapshots live here; on \
                   startup the directory is recovered before listening. \
                   Without it the server is in-memory only.")
  in
  let snapshot_every_arg =
    Arg.(value & opt (some int) None
         & info [ "snapshot-every" ] ~docv:"N"
             ~doc:"Write a compacting snapshot after every N WAL appends \
                   (requires --data-dir).")
  in
  let snapshot_bytes_arg =
    Arg.(value & opt (some int) None
         & info [ "snapshot-bytes" ] ~docv:"BYTES"
             ~doc:"Write a compacting snapshot once this many WAL bytes have \
                   accumulated since the last one (requires --data-dir; \
                   composes with --snapshot-every).")
  in
  let group_commit_arg =
    Arg.(value
         & vflag false
             [
               ( true,
                 info [ "group-commit" ]
                   ~doc:"Batch concurrent WAL appends into one fsync \
                         (higher write throughput; durability unchanged — \
                         a mutation is still acknowledged only after its \
                         batch is on disk)." );
               ( false,
                 info [ "no-group-commit" ]
                   ~doc:"Fsync every mutation individually (the default)." );
             ])
  in
  let chaos_arg =
    Arg.(value & flag
         & info [ "chaos" ]
             ~doc:"Accept the FAIL wire verb for arming failpoints. Test \
                   harnesses only — never in production.")
  in
  let replica_of_arg =
    Arg.(value & opt (some string) None
         & info [ "replica-of" ] ~docv:"ENDPOINT"
             ~doc:"Start as a read-only replica following this primary \
                   (requires --data-dir). The node subscribes to the \
                   primary's WAL stream, applies every record through the \
                   recovery path, and refuses mutations.")
  in
  let cluster_arg =
    Arg.(value & opt (some string) None
         & info [ "cluster" ] ~docv:"EP1,EP2,..."
             ~doc:"Comma-separated member endpoints of the replication \
                   cluster (requires --data-dir). A replica re-resolves its \
                   primary across these after a promotion; without \
                   --replica-of the node starts as the primary.")
  in
  let advertise_arg =
    Arg.(value & opt (some string) None
         & info [ "advertise" ] ~docv:"ENDPOINT"
             ~doc:"Endpoint this node advertises to peers and clients \
                   (default: unix:PATH of --unix).")
  in
  let info =
    Cmd.info "obda_server"
      ~doc:"Caching OBDA query server (LOAD/CLASSIFY/PREPARE/ASK/STATS wire protocol)."
  in
  exit
    (Cmd.eval
       (Cmd.v info
          Term.(
            const run $ unix_arg $ tcp_arg $ host_arg $ workers_arg $ queue_arg
            $ timeout_arg $ lru_arg $ slow_log_arg $ data_dir_arg
            $ snapshot_every_arg $ snapshot_bytes_arg $ group_commit_arg $ chaos_arg $ replica_of_arg $ cluster_arg
            $ advertise_arg)))
