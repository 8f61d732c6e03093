(* Replication & failover regressions: REPL frame codec round-trips and
   malformed-frame rejection, stale-epoch promotion and hub fencing,
   read-only replica enforcement, and a fork property that kill -9s a
   real primary process mid-stream and checks the promoted replica
   serves exactly the acknowledged prefix. *)

module Wire = Server.Wire
module Service = Server.Service
module Client = Server.Client
module Store = Durable.Store
module Failpoint = Durable.Failpoint
module Harness = Cluster.Harness
module Node = Cluster.Node
module Replicate = Cluster.Replicate

let registry () = Obs.Registry.create ()

let fresh_dir =
  let n = ref 0 in
  fun () ->
    incr n;
    let dir =
      Filename.concat
        (Filename.get_temp_dir_name ())
        (Printf.sprintf "obda-test-cluster-%d-%d" (Unix.getpid ()) !n)
    in
    Harness.rm_rf dir;
    Unix.mkdir dir 0o755;
    dir

(* dune runs this binary from [_build/default/test]; the server the
   harness spawns is the sibling build product (declared as a test dep) *)
let server_exe = "../bin/obda_server.exe"

(* ------------------------- frame codec ------------------------------- *)

let test_frame_roundtrip () =
  List.iter
    (fun frame ->
      match Wire.parse_frame (Wire.encode_frame frame) with
      | Result.Ok got ->
        Alcotest.(check bool)
          (Wire.encode_frame frame) true (got = frame)
      | Result.Error e -> Alcotest.failf "round-trip failed: %s" e)
    [
      Wire.F_record { seq = 1; epoch = 0; count = 3 };
      Wire.F_record { seq = 982451653; epoch = 17; count = 0 };
      Wire.F_reset { fence = 0; state_records = 2 };
      Wire.F_state { count = 5 };
      Wire.F_ack { seq = 42 };
      Wire.F_nack { epoch = 3 };
    ]

let test_malformed_frames () =
  List.iter
    (fun line ->
      match Wire.parse_frame line with
      | Result.Error _ -> ()
      | Result.Ok _ -> Alcotest.failf "accepted malformed frame %S" line)
    [
      "";
      "REPL";
      "REPL RECORD";
      "REPL RECORD 1 2";             (* missing count *)
      "REPL RECORD 0 1 1";           (* seq must be >= 1 *)
      "REPL RECORD x 1 1";
      "REPL RECORD 1 -1 1";          (* negative epoch *)
      "REPL RECORD 1 1 1 extra";
      "REPL RESET -1 0";
      "REPL RESET 3 x";
      "REPL STATE";
      "REPL STATE -2";
      "REPL ACK x";
      "REPL NACK";
      "REPL BOGUS 1 2";
      "LOAD s TBOX 0";               (* a request is not a frame *)
    ]

(* the request decoder must reject malformed REPL verbs loudly too *)
let test_malformed_repl_requests () =
  let decode line =
    let d = Wire.decoder () in
    Wire.feed d line
  in
  List.iter
    (fun line ->
      match decode line with
      | Wire.Error _ -> ()
      | Wire.Request _ | Wire.More ->
        Alcotest.failf "malformed REPL verb %S accepted" line)
    [
      "REPL";
      "REPL SUBSCRIBE";
      "REPL SUBSCRIBE x 3";
      "REPL SUBSCRIBE -1 0";
      "REPL PROMOTE";
      "REPL PROMOTE 0";              (* epochs start at 1 *)
      "REPL PROMOTE x";
      "REPL FLOOP";
    ];
  (match decode "REPL SUBSCRIBE 4 2" with
   | Wire.Request (Wire.Repl_subscribe { fence = 4; epoch = 2 }) -> ()
   | _ -> Alcotest.fail "well-formed REPL SUBSCRIBE rejected");
  (* the fence-only form is legal: the epoch defaults to 0 *)
  match decode "REPL SUBSCRIBE 7" with
  | Wire.Request (Wire.Repl_subscribe { fence = 7; epoch = 0 }) -> ()
  | _ -> Alcotest.fail "fence-only REPL SUBSCRIBE rejected"

(* ------------------------- epoch fencing ----------------------------- *)

let string_of_reply = function
  | Wire.Ok lines -> "OK " ^ String.concat " | " lines
  | Wire.Err e -> "ERR " ^ e
  | Wire.Busy -> "BUSY"

let test_stale_epoch_promotion () =
  let dir = fresh_dir () in
  match Store.open_dir ~registry:(registry ()) dir with
  | Result.Error e -> Alcotest.failf "open_dir: %s" e
  | Result.Ok (store, _) ->
    let service = Service.create ~registry:(registry ()) () in
    Service.attach_store service store;
    let node =
      Node.create ~registry:(registry ()) ~service ~store ~endpoint:""
        ~members:[] ~role:Node.Primary ()
    in
    (match Node.promote node ~epoch:0 with
     | Wire.Err m ->
       Alcotest.(check bool) "stale refusal names the epoch" true
         (String.length m >= 5 && String.sub m 0 5 = "stale")
     | _ -> Alcotest.fail "epoch 0 promotion must be refused (current is 0)");
    (match Node.promote node ~epoch:2 with
     | Wire.Ok _ -> ()
     | Wire.Err m -> Alcotest.failf "epoch 2 promotion refused: %s" m
     | Wire.Busy -> Alcotest.fail "epoch 2 promotion busy");
    (match Node.promote node ~epoch:1 with
     | Wire.Err _ -> ()
     | _ -> Alcotest.fail "epoch 1 must be stale after epoch 2");
    Alcotest.(check int) "epoch adopted" 2 (Node.epoch node);
    (* the epoch survives restart: persisted with the data directory *)
    Alcotest.(check int) "epoch persisted" 2 (Node.load_epoch dir);
    Node.stop node;
    Store.close store;
    Harness.rm_rf dir

let test_hub_fenced_by_higher_epoch () =
  let dir = fresh_dir () in
  match Store.open_dir ~registry:(registry ()) dir with
  | Result.Error e -> Alcotest.failf "open_dir: %s" e
  | Result.Ok (store, _) ->
    let hub =
      Replicate.Hub.create ~registry:(registry ()) ~epoch:(fun () -> 1) store
    in
    Alcotest.(check bool) "gate open before fencing" true
      (Replicate.Hub.gate hub () = Result.Ok ());
    (* a subscriber that lived under epoch 5 proves we are the stale
       primary: the subscription is refused and the hub fences itself *)
    let a, b = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    Replicate.Hub.subscribe hub ~fence:0 ~epoch:5 ~fd:a
      ~reader:(Durable.Io.reader a);
    let reply =
      let buf = Bytes.create 256 in
      let n = Unix.read b buf 0 256 in
      Bytes.sub_string buf 0 n
    in
    Alcotest.(check bool) "subscription refused as stale" true
      (String.length reply >= 9 && String.sub reply 0 9 = "ERR stale");
    (match Replicate.Hub.gate hub () with
     | Result.Error m ->
       let p = Service.read_only_prefix in
       Alcotest.(check string) "gate refusal is machine-detectable" p
         (String.sub m 0 (String.length p))
     | Result.Ok () -> Alcotest.fail "gate still open after fencing");
    (match Replicate.Hub.wait_replicated hub 1 with
     | Result.Error _ -> ()
     | Result.Ok () -> Alcotest.fail "barrier passes on a fenced hub");
    Replicate.Hub.stop hub;
    Unix.close a;
    Unix.close b;
    Store.close store;
    Harness.rm_rf dir

(* [within seconds ready] polls [ready] until it holds or [seconds]
   pass; a test fails on [false] instead of hanging *)
let within seconds ready =
  let deadline = Unix.gettimeofday () +. seconds in
  let rec go () =
    if ready () then true
    else if Unix.gettimeofday () > deadline then false
    else begin
      Thread.delay 0.01;
      go ()
    end
  in
  go ()

(* The barrier's deadline path: a subscriber that never ACKs holds a
   mutation for [ack_timeout], after which the hub drops it and lets the
   mutation through standalone. *)
let test_hub_ack_timeout () =
  let dir = fresh_dir () in
  match Store.open_dir ~registry:(registry ()) dir with
  | Result.Error e -> Alcotest.failf "open_dir: %s" e
  | Result.Ok (store, _) ->
    let reg = registry () in
    let hub =
      Replicate.Hub.create ~registry:reg ~ack_timeout:0.2
        ~epoch:(fun () -> 1) store
    in
    (* [b] is the replica's end: it never reads and never ACKs *)
    let a, b = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    let subscriber =
      Thread.create
        (fun () ->
          Replicate.Hub.subscribe hub ~fence:0 ~epoch:1 ~fd:a
            ~reader:(Durable.Io.reader a))
        ()
    in
    if not (within 5.0 (fun () -> snd (Replicate.Hub.ack_state hub) = 1))
    then Alcotest.fail "subscriber never registered";
    let m = Mutex.create () in
    let outcome = ref None in
    let _barrier =
      Thread.create
        (fun () ->
          let t0 = Unix.gettimeofday () in
          let r = Replicate.Hub.wait_replicated hub 1 in
          let elapsed = Unix.gettimeofday () -. t0 in
          Mutex.lock m;
          outcome := Some (r, elapsed);
          Mutex.unlock m)
        ()
    in
    let finished () =
      Mutex.lock m;
      let o = !outcome in
      Mutex.unlock m;
      o
    in
    if not (within 5.0 (fun () -> finished () <> None)) then
      Alcotest.fail "barrier still blocked 5 s after a 0.2 s ack timeout";
    (match finished () with
     | Some (r, elapsed) ->
       Alcotest.(check bool) "barrier proceeds standalone" true
         (r = Result.Ok ());
       if elapsed < 0.2 || elapsed >= 2.0 then
         Alcotest.failf "barrier returned after %.3fs, want [0.2, 2)" elapsed
     | None -> assert false);
    Alcotest.(check int) "the silent subscriber was dropped" 1
      (Obs.Counter.value
         (Obs.Registry.counter reg "obda_repl_subscribers_dropped_total"));
    (* the drop shut [a] down, so the ACK reader has returned *)
    Thread.join subscriber;
    Replicate.Hub.stop hub;
    Unix.close a;
    Unix.close b;
    Store.close store;
    Harness.rm_rf dir

(* The full fenced-ex-primary life cycle against one node directory:
   fencing persists a marker (and adopts the learned epoch) before it
   engages, a restart as primary comes back fenced, and only a
   promotion past the fenced epoch clears it and reopens the gate. *)
let test_fence_persists_and_repromotion_clears () =
  let dir = fresh_dir () in
  let open_node () =
    match Store.open_dir ~registry:(registry ()) dir with
    | Result.Error e -> Alcotest.failf "open_dir: %s" e
    | Result.Ok (store, _) ->
      let service = Service.create ~registry:(registry ()) () in
      Service.attach_store service store;
      let node =
        Node.create ~registry:(registry ()) ~service ~store ~endpoint:""
          ~members:[] ~role:Node.Primary ()
      in
      (store, service, node)
  in
  let mutate service tag =
    Service.handle service
      (Wire.Load
         { session = "s"; kind = Wire.K_tbox; payload = [ "concept " ^ tag ] })
  in
  let check_refused what = function
    | Wire.Err m ->
      let p = Service.read_only_prefix in
      Alcotest.(check string) (what ^ " refusal is machine-detectable") p
        (String.sub m 0 (String.length p))
    | r -> Alcotest.failf "%s accepted a write: %s" what (string_of_reply r)
  in
  let store, service, node = open_node () in
  (match mutate service "A" with
   | Wire.Ok _ -> ()
   | r -> Alcotest.failf "pre-fence write refused: %s" (string_of_reply r));
  (* a subscriber that lived under epoch 5 proves a newer timeline *)
  let a, b = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Node.subscribe node ~fence:0 ~epoch:5 ~fd:a ~reader:(Durable.Io.reader a);
  Unix.close a;
  Unix.close b;
  check_refused "fenced primary" (mutate service "B");
  Alcotest.(check int) "fencing adopts the learned epoch" 5 (Node.epoch node);
  Alcotest.(check (option int)) "fence marker persisted" (Some 5)
    (Node.load_fenced dir);
  Node.stop node;
  Store.close store;
  (* kill -9 equivalent: a fresh process over the same directory must
     come back fenced, not as a write-accepting stale primary *)
  let store2, service2, node2 = open_node () in
  check_refused "restarted fenced ex-primary" (mutate service2 "C");
  (match Node.promote node2 ~epoch:6 with
   | Wire.Ok _ -> ()
   | r -> Alcotest.failf "re-promotion refused: %s" (string_of_reply r));
  (match mutate service2 "D" with
   | Wire.Ok _ -> ()
   | r ->
     Alcotest.failf "re-promoted primary still refuses writes: %s"
       (string_of_reply r));
  Alcotest.(check (option int)) "fence marker cleared by promotion" None
    (Node.load_fenced dir);
  Node.stop node2;
  Store.close store2;
  Harness.rm_rf dir

(* A stale promotion must be refused without severing the replica's
   live subscription — otherwise two racing [promote_best] calls leave
   the loser silently unreplicated forever. *)
let test_stale_promotion_keeps_subscriber () =
  let dir = fresh_dir () in
  match Store.open_dir ~registry:(registry ()) dir with
  | Result.Error e -> Alcotest.failf "open_dir: %s" e
  | Result.Ok (store, _) ->
    let service = Service.create ~registry:(registry ()) () in
    Service.attach_store service store;
    let node =
      Node.create ~registry:(registry ()) ~service ~store ~endpoint:""
        ~members:[]
        ~role:(Node.Replica_of "unix:/tmp/obda-nowhere.sock")
        ()
    in
    Alcotest.(check bool) "replica starts with a subscriber" true
      (node.Node.sub <> None);
    (match Node.promote node ~epoch:0 with
     | Wire.Err _ -> ()
     | r -> Alcotest.failf "stale promotion accepted: %s" (string_of_reply r));
    Alcotest.(check bool) "subscriber survives the stale promotion" true
      (node.Node.sub <> None);
    (match
       Service.handle service
         (Wire.Load { session = "s"; kind = Wire.K_tbox; payload = [ "concept A" ] })
     with
     | Wire.Err _ -> ()
     | r ->
       Alcotest.failf "node lost its replica role: %s" (string_of_reply r));
    (* a genuine promotion severs the subscription and flips the role *)
    (match Node.promote node ~epoch:1 with
     | Wire.Ok _ -> ()
     | r -> Alcotest.failf "promotion refused: %s" (string_of_reply r));
    Alcotest.(check bool) "subscriber severed by the real promotion" true
      (node.Node.sub = None);
    (match
       Service.handle service
         (Wire.Load { session = "s"; kind = Wire.K_tbox; payload = [ "concept A" ] })
     with
     | Wire.Ok _ -> ()
     | r ->
       Alcotest.failf "promoted node refuses writes: %s" (string_of_reply r));
    Node.stop node;
    Store.close store;
    Harness.rm_rf dir

(* a canned wire member: answers HELLO / REPL STATUS / REPL PROMOTE
   from fixed strings — just enough protocol for [probe_endpoint] and
   [promote_best] to talk to *)
let fake_member ~sock ~status_line ~accept_promote =
  let srv = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.bind srv (Unix.ADDR_UNIX sock);
  Unix.listen srv 8;
  let stop = ref false in
  let promoted_at = ref None in
  let serve_conn fd =
    let reader = Durable.Io.reader fd in
    let send lines =
      try Durable.Io.write_lines fd lines with Unix.Unix_error _ -> ()
    in
    let rec go () =
      match Durable.Io.read_line reader ~max_line:4096 with
      | None -> ()
      | Some line ->
        (match String.split_on_char ' ' line with
         | "HELLO" :: _ -> send [ "OK 1"; "v3 bulk repl" ]
         | [ "REPL"; "STATUS" ] -> send [ "OK 1"; status_line ]
         | [ "REPL"; "PROMOTE"; e ] ->
           if accept_promote then begin
             promoted_at := int_of_string_opt e;
             send [ "OK 1"; Printf.sprintf "primary epoch %s fence 0" e ]
           end
           else send [ "ERR promotion refused" ]
         | _ -> send [ "ERR unknown verb" ]);
        go ()
    in
    go ();
    try Unix.close fd with Unix.Unix_error _ -> ()
  in
  let th =
    Thread.create
      (fun () ->
        while not !stop do
          match Unix.accept srv with
          | exception Unix.Unix_error _ -> ()
          | fd, _ -> serve_conn fd
        done)
      ()
  in
  let shutdown () =
    stop := true;
    (* wake the blocked accept with a throwaway dial *)
    (match Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 with
     | exception Unix.Unix_error _ -> ()
     | fd ->
       (try Unix.connect fd (Unix.ADDR_UNIX sock) with Unix.Unix_error _ -> ());
       (try Unix.close fd with Unix.Unix_error _ -> ()));
    Thread.join th;
    try Unix.close srv with Unix.Unix_error _ -> ()
  in
  (shutdown, promoted_at)

(* A live fenced ex-primary advertises role=primary and typically holds
   the highest fence (its divergent unacked WAL suffix) — [promote_best]
   must skip it, while its epoch still raises the promotion epoch. *)
let test_promote_best_skips_fenced () =
  let scratch = fresh_dir () in
  Fun.protect ~finally:(fun () -> Harness.rm_rf scratch) @@ fun () ->
  let f_sock = Filename.concat scratch "f.sock" in
  let r_sock = Filename.concat scratch "r.sock" in
  let shutdown_f, promoted_f =
    fake_member ~sock:f_sock ~accept_promote:false
      ~status_line:
        "role=primary epoch=7 fence=99 primary=- subscribers=0 acked=-1 \
         fenced=7"
  in
  let shutdown_r, promoted_r =
    fake_member ~sock:r_sock ~accept_promote:true
      ~status_line:"role=replica epoch=7 fence=5 primary=-"
  in
  Fun.protect
    ~finally:(fun () ->
      shutdown_f ();
      shutdown_r ())
    (fun () ->
      let f_ep = "unix:" ^ f_sock and r_ep = "unix:" ^ r_sock in
      Alcotest.(check bool) "probe parses fenced=" true
        (Client.probe_endpoint f_ep).Client.es_fenced;
      Alcotest.(check bool) "unfenced member probes clean" false
        (Client.probe_endpoint r_ep).Client.es_fenced;
      (* a fenced member alone is not promotable *)
      (match Node.promote_best [ f_ep ] with
       | Result.Error m ->
         Alcotest.(check bool) "refusal names the fence" true
           (let marker = "unfenced" in
            let lm = String.length marker and l = String.length m in
            let rec scan i =
              i + lm <= l && (String.sub m i lm = marker || scan (i + 1))
            in
            scan 0)
       | Result.Ok (ep, _) ->
         Alcotest.failf "promoted a fenced ex-primary: %s" ep);
      (* with a replica present, the replica wins despite its lower
         fence, at an epoch above the fenced member's *)
      (match Node.promote_best [ f_ep; r_ep ] with
       | Result.Error e -> Alcotest.failf "promotion failed: %s" e
       | Result.Ok (ep, epoch) ->
         Alcotest.(check string) "replica chosen over fenced ex-primary" r_ep
           ep;
         Alcotest.(check int) "promotion epoch beats the fenced one" 8 epoch);
      Alcotest.(check (option int)) "replica got REPL PROMOTE" (Some 8)
        !promoted_r;
      Alcotest.(check (option int)) "fenced member was never promoted" None
        !promoted_f)

let test_replica_read_only () =
  let s = Service.create ~registry:(registry ()) () in
  Service.set_role s (Service.Replica { primary = "unix:/tmp/p.sock" });
  (match
     Service.handle s
       (Wire.Load { session = "s"; kind = Wire.K_tbox; payload = [ "concept A" ] })
   with
   | Wire.Err m ->
     let p = Service.read_only_prefix in
     Alcotest.(check string) "refusal prefix" p
       (String.sub m 0 (String.length p));
     Alcotest.(check bool) "refusal carries the primary hint" true
       (let marker = "primary is unix:/tmp/p.sock" in
        let lm = String.length marker and l = String.length m in
        let rec scan i = i + lm <= l && (String.sub m i lm = marker || scan (i + 1)) in
        scan 0)
   | _ -> Alcotest.fail "replica accepted a mutation");
  (* reads are not gated: the role check covers mutations only *)
  match Service.handle s Wire.Metrics with
  | Wire.Ok _ -> ()
  | Wire.Err e -> Alcotest.failf "replica refused a read: %s" e
  | Wire.Busy -> Alcotest.fail "replica busy on a read"

(* ---------------- fork property: promoted ≡ acked prefix ------------- *)

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
                           String.sub tok (i + 1) (String.length tok - i - 1)
                         )))
          | Result.Ok _ -> Result.Error "malformed STATUS reply"))

let wait_subscribers ep n ~timeout =
  let deadline = Unix.gettimeofday () +. timeout in
  let rec go () =
    let sub =
      match repl_status ep with
      | Result.Ok kv ->
        (match List.assoc_opt "subscribers" kv with
         | Some s -> int_of_string_opt s |> Option.value ~default:0
         | None -> 0)
      | Result.Error _ -> 0
    in
    if sub >= n then true
    else if Unix.gettimeofday () > deadline then false
    else begin
      Thread.delay 0.05;
      go ()
    end
  in
  go ()

(* One full round against real server processes: spawn a primary and
   one replica, wait for the subscription (the semi-sync barrier only
   covers writes made while a subscriber is attached), drive a random
   script, then kill -9 the primary — either from outside between
   acknowledged writes or via an armed [repl.send.record] torn-frame
   failpoint that dies mid-stream.  Promote the replica and require it
   to answer every probe exactly as an in-process replay of the
   acknowledged prefix does (one in-flight write of tolerance, for the
   ack racing the kill). *)
let failover_serves_acked_prefix seed =
  let rng = Random.State.make [| seed |] in
  let scratch = fresh_dir () in
  Fun.protect ~finally:(fun () -> Harness.rm_rf scratch) @@ fun () ->
  let sock n = Filename.concat scratch (n ^ ".sock") in
  let dir n = Filename.concat scratch n in
  let eps = [ "unix:" ^ sock "p"; "unix:" ^ sock "r" ] in
  let p_ep = List.nth eps 0 and r_ep = List.nth eps 1 in
  let p =
    Harness.spawn ~exe:server_exe ~sock:(sock "p") ~data_dir:(dir "p")
      ~cluster:eps ()
  in
  let r =
    Harness.spawn ~exe:server_exe ~sock:(sock "r") ~data_dir:(dir "r")
      ~replica_of:p_ep ~cluster:eps ()
  in
  let cleanup () =
    Harness.kill_dead p;
    Harness.kill_dead r
  in
  Fun.protect ~finally:cleanup @@ fun () ->
  Client.close (Harness.wait_listening p);
  Client.close (Harness.wait_listening r);
  if not (wait_subscribers p_ep 1 ~timeout:10.0) then
    failwith "replica never subscribed";
  let conn = Harness.wait_listening p in
  let rpc req =
    match Client.request conn req with
    | Result.Ok reply -> reply
    | Result.Error e -> Wire.Err ("transport: " ^ e)
  in
  let session = "s" in
  let tbox =
    Wire.Load
      {
        session;
        kind = Wire.K_tbox;
        payload = [ "concept A"; "concept B"; "role r"; "A [= B" ];
      }
  in
  (match rpc tbox with
   | Wire.Ok _ -> ()
   | reply -> failwith ("TBOX load failed: " ^ string_of_reply reply));
  let acked = ref [ tbox ] and in_flight = ref None in
  let n = 4 + Random.State.int rng 5 in
  let kill_at = Random.State.int rng n in
  let torn = Random.State.bool rng in
  if torn then begin
    (* arm AFTER the TBOX so the skip count lines up with the script:
       the (kill_at+1)-th record send tears mid-frame and the primary
       dies with the simulated kill -9 *)
    match
      rpc
        (Wire.Fail
           {
             name = "repl.send.record";
             spec = Printf.sprintf "partial:7@%d" kill_at;
           })
    with
    | Wire.Ok _ -> ()
    | reply -> failwith ("FAIL verb refused: " ^ string_of_reply reply)
  end;
  (let stop = ref false in
   let i = ref 0 in
   while (not !stop) && !i < n do
     if (not torn) && !i = kill_at then begin
       Harness.kill_dead p;
       stop := true
     end
     else begin
       let payload = [ Printf.sprintf "A(w%d_%d)" seed !i ] in
       let req = Wire.Load { session; kind = Wire.K_abox; payload } in
       in_flight := Some req;
       (match rpc req with
        | Wire.Ok _ ->
          acked := !acked @ [ req ];
          in_flight := None
        | Wire.Err _ ->
          (* transport death: the torn frame killed the primary *)
          stop := true
        | Wire.Busy -> stop := true);
       incr i
     end
   done);
  Client.close conn;
  Harness.kill_dead p;
  (* promote the survivor and compare against the acked-prefix oracle *)
  (match Node.promote_best [ r_ep ] with
   | Result.Ok _ -> ()
   | Result.Error e -> failwith ("promotion failed: " ^ e));
  if not (Harness.wait_role ~timeout:10.0 r_ep "primary") then
    failwith "promoted replica never became primary";
  let replay reqs =
    let s = Service.create ~registry:(registry ()) () in
    List.iter (fun req -> ignore (Service.handle s req)) reqs;
    s
  in
  let oracle = replay !acked in
  let oracle_next = Option.map (fun req -> replay (!acked @ [ req ])) !in_flight in
  let conn2 = Harness.wait_listening r in
  let ok =
    Fun.protect ~finally:(fun () -> Client.close conn2) @@ fun () ->
    List.for_all
      (fun probe ->
        let wire =
          match Client.request conn2 probe with
          | Result.Ok reply -> string_of_reply reply
          | Result.Error e -> "TRANSPORT " ^ e
        in
        let local = string_of_reply (Service.handle oracle probe) in
        let next =
          Option.map
            (fun o -> string_of_reply (Service.handle o probe))
            oracle_next
        in
        wire = local || Some wire = next)
      [
        Wire.Ask { session; query = Wire.Inline "x <- A(x)" };
        Wire.Ask { session; query = Wire.Inline "x <- B(x)" };
        Wire.Ask { session; query = Wire.Inline "x, y <- r(x, y)" };
      ]
  in
  ok

let prop_failover_acked_prefix =
  QCheck.Test.make ~count:4 ~name:"kill -9 primary -> promoted = acked prefix"
    QCheck.(int_bound 1_000_000)
    failover_serves_acked_prefix

(* ------------------------------- suite ------------------------------- *)

let () =
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  Alcotest.run "cluster"
    [
      ( "frames",
        [
          Alcotest.test_case "codec round-trip" `Quick test_frame_roundtrip;
          Alcotest.test_case "malformed frames rejected" `Quick
            test_malformed_frames;
          Alcotest.test_case "malformed REPL requests rejected" `Quick
            test_malformed_repl_requests;
        ] );
      ( "fencing",
        [
          Alcotest.test_case "stale promotion epochs refused" `Quick
            test_stale_epoch_promotion;
          Alcotest.test_case "hub fenced by higher-epoch subscriber" `Quick
            test_hub_fenced_by_higher_epoch;
          Alcotest.test_case "hub drops a silent subscriber at the ack timeout"
            `Quick test_hub_ack_timeout;
          Alcotest.test_case "fence persists; re-promotion clears it" `Quick
            test_fence_persists_and_repromotion_clears;
          Alcotest.test_case "stale promotion keeps the subscriber" `Quick
            test_stale_promotion_keeps_subscriber;
          Alcotest.test_case "promote_best skips a fenced ex-primary" `Quick
            test_promote_best_skips_fenced;
          Alcotest.test_case "replica refuses mutations" `Quick
            test_replica_read_only;
        ] );
      ( "failover",
        [ QCheck_alcotest.to_alcotest ~long:false prop_failover_acked_prefix ]
      );
    ]
