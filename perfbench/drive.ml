(* The end-to-end run: the real obda_server over a Unix socket, driven
   closed-loop from this process.  Set-up, the timed window, the probes
   and recovery are separate phases; only the window feeds the latency,
   throughput and CPU figures, and answers are checked outside it. *)

module Wire = Server.Wire
module Client = Server.Client
open Stats

let now = Proc.now

(* ---------------------------- accounting ----------------------------- *)

type acct = {
  attempted : int Atomic.t;
  failed : int Atomic.t;
  mu : Mutex.t;
  mutable notes : string list;  (** first failures, for stderr *)
}

let acct () =
  { attempted = Atomic.make 0; failed = Atomic.make 0; mu = Mutex.create (); notes = [] }

let fail a msg =
  Atomic.incr a.failed;
  Mutex.lock a.mu;
  if List.length a.notes < 8 then a.notes <- msg :: a.notes;
  Mutex.unlock a.mu

(* An answer is compared after the window: [pending] collects the
   comparisons, each one op that is wrong or right. *)
type checks = { cmu : Mutex.t; mutable pending : (string * (unit -> bool)) list }

let checks () = { cmu = Mutex.create (); pending = [] }

let defer c what f =
  Mutex.lock c.cmu;
  c.pending <- (what, f) :: c.pending;
  Mutex.unlock c.cmu

let run_checks a c =
  List.iter (fun (what, f) -> if not (f ()) then fail a ("wrong answer: " ^ what))
    (List.rev c.pending);
  c.pending <- []

(* ---------------------------- connections ---------------------------- *)

type ctx = {
  exe : string;
  flags : string list;
  dir : string;  (** the run directory, inside the checkout *)
  sock : string;
  snapshot_bytes : int;
  a : acct;
  ck : checks;
  mutable payload_bytes : int;  (** mutation payload sent to the live server *)
}

let connect sock =
  match Client.connect ~registry:(Obs.Registry.create ()) ("unix:" ^ sock) with
  | Result.Error _ as e -> e
  | Result.Ok c ->
    (* a hung server turns into a failed op, not a hung benchmark *)
    Option.iter
      (fun cn -> Unix.setsockopt_float cn.Client.fd Unix.SO_RCVTIMEO 60.0)
      c.Client.conn;
    Result.Ok c

(** One request; an ERR, BUSY, timeout or dropped connection is a failed
    op and yields [None]. *)
let call ctx c req =
  Atomic.incr ctx.a.attempted;
  match Client.request c req with
  | Result.Ok (Wire.Ok lines) -> Some lines
  | Result.Ok (Wire.Err e) ->
    fail ctx.a ("ERR " ^ e);
    None
  | Result.Ok Wire.Busy ->
    fail ctx.a "BUSY";
    None
  | Result.Error e ->
    fail ctx.a ("transport: " ^ e);
    None

let mutation ctx c req =
  (match req with
   | Wire.Load { payload; _ } | Wire.Bulk_chunk { payload; _ } ->
     List.iter
       (fun l -> ctx.payload_bytes <- ctx.payload_bytes + String.length l + 1)
       payload
   | _ -> ());
  call ctx c req

(* Readiness: dial every 2 ms until the listener answers HELLO. *)
let await_ready ctx (srv : Proc.server) =
  let deadline = now () +. 120.0 in
  let rec dial () =
    if Proc.exited srv then failwith "server exited during start-up";
    match connect srv.Proc.sock with
    | Result.Ok c -> c
    | Result.Error e ->
      if now () > deadline then failwith ("server did not come up: " ^ e);
      Unix.sleepf 0.002;
      dial ()
  in
  let c = dial () in
  match call ctx c (Wire.Hello Wire.max_version) with
  | Some _ -> c
  | None -> failwith "HELLO refused"

let scrape ctx c =
  match call ctx c Wire.Metrics with
  | Some lines -> parse_scrape lines
  | None -> Hashtbl.create 1

(* ----------------------------- the closed loop ------------------------ *)

type meter = {
  mmu : Mutex.t;
  asks : Samples.t;
  writes : Samples.t;
  edits : Samples.t;
  mutable ops : int;
  mutable rows : int;  (** answer lines received *)
  mutable req_s : float;  (** client-observed time of every request *)
  mutable paused : float;  (** time spent in in-window oracle checks *)
}

let meter () =
  {
    mmu = Mutex.create ();
    asks = Samples.create ();
    writes = Samples.create ();
    edits = Samples.create ();
    ops = 0;
    rows = 0;
    req_s = 0.0;
    paused = 0.0;
  }

(* a request whose latency lands in [m] when [m] is given *)
let timed ctx m kind c req =
  let t0 = now () in
  let r = mutation ctx c req in
  let dt = now () -. t0 in
  Option.iter
    (fun m ->
      Mutex.lock m.mmu;
      (match kind with
       | Workloads.Ask -> Samples.add m.asks dt
       | Workloads.Write -> Samples.add m.writes dt
       | Workloads.Other -> ());
      m.ops <- m.ops + 1;
      m.req_s <- m.req_s +. dt;
      (match (kind, r) with
       | Workloads.Ask, Some lines -> m.rows <- m.rows + List.length lines
       | _ -> ());
      Mutex.unlock m.mmu)
    m;
  r

let describe = function
  | Wire.Ask { query = Wire.Named q; _ } | Wire.Ask { query = Wire.Inline q; _ } -> q
  | _ -> "reply"

(* One cycle on connection [c].  A [Now] check pauses the clock: its
   time is added to [until] and to the meter's [paused]. *)
let run_cycle ctx m c ~until (cy : Workloads.cycle) =
  let t0 = now () and paused = ref 0.0 in
  List.iter
    (fun (st : Workloads.step) ->
      match (timed ctx m st.kind c st.req, st.check) with
      | None, _ | Some _, Workloads.Unchecked -> ()
      | Some lines, Workloads.Later f -> defer ctx.ck (describe st.req) (fun () -> f lines)
      | Some lines, Workloads.Now f ->
        let t = now () in
        if not (f lines) then fail ctx.a ("wrong answer: " ^ describe st.req);
        paused := !paused +. (now () -. t))
    cy.steps;
  if !paused > 0.0 then until := !until +. !paused;
  Option.iter
    (fun m ->
      Mutex.lock m.mmu;
      m.paused <- m.paused +. !paused;
      if cy.edit then Samples.add m.edits (now () -. t0 -. !paused);
      Mutex.unlock m.mmu)
    m

(* the closed loop: every connection runs cycles until the deadline *)
let window ctx (w : Workloads.t) conns m ~until =
  let until = ref until in
  let client c () =
    while now () < !until do
      run_cycle ctx m c ~until (w.next ())
    done
  in
  match conns with
  | [| c |] -> client c ()
  | _ -> Array.iter Thread.join (Array.map (fun c -> Thread.create (client c) ()) conns)

let probe ctx (w : Workloads.t) c m =
  List.iter (run_cycle ctx (Some m) c ~until:(ref 0.0)) w.probe

let load ctx c (w : Workloads.t) = List.iter (fun req -> ignore (mutation ctx c req)) w.setup

(* [check] is taken before the clock starts: the oracle is not timed *)
let first_answer ctx c (req, expected) =
  match call ctx c req with
  | Some lines when lines = expected -> ()
  | Some _ -> fail ctx.a "wrong answer: first answer"
  | None -> ()

(* ------------------------------- phases ------------------------------- *)

let data_dir ctx = Filename.concat ctx.dir "data"

(* set-up: spawn on an empty data dir, load, first correct answer *)
let setup ctx (w : Workloads.t) =
  Proc.rm_rf (data_dir ctx);
  let check = w.check () in
  let t0 = now () in
  let srv =
    Proc.spawn ~exe:ctx.exe ~flags:ctx.flags ~sock:ctx.sock
      ~data_dir:(data_dir ctx) ~log:(Filename.concat ctx.dir "server.log")
  in
  let c = await_ready ctx srv in
  load ctx c w;
  first_answer ctx c check;
  (srv, c, now () -. t0)

(* Leave the data dir as one compacted snapshot and an empty WAL tail,
   so recovery replays the same records on every run: send a FACTS
   load of already-present rows (a no-op on the data) at least one
   snapshot trigger long, and wait for the snapshot it triggers. *)
let quiesce ctx c (w : Workloads.t) =
  let snapshots () = get (scrape ctx c) "obda_snapshots_total" in
  let rec settle last =
    Unix.sleepf 0.1;
    let s = snapshots () in
    if s <> last then settle s else s
  in
  let base = settle (snapshots ()) in
  let pad =
    let facts = Array.of_list (Workloads.facts w) in
    let rec go i bytes acc =
      if bytes >= ctx.snapshot_bytes then acc
      else
        let l = facts.(i mod Array.length facts) in
        go (i + 1) (bytes + String.length l + 1) (l :: acc)
    in
    go 0 0 []
  in
  let rec attempt k =
    if k > 0 then begin
      ignore
        (mutation ctx c
           (Wire.Load { session = Inputs.session; kind = Wire.K_facts; payload = pad }));
      let deadline = now () +. 5.0 in
      let rec wait () =
        if snapshots () > base then true
        else if now () > deadline then false
        else (Unix.sleepf 0.01; wait ())
      in
      if not (wait ()) then attempt (k - 1)
    end
  in
  attempt 3

(* recovery: kill -9, restart on the same dir, first correct answer *)
let recover ctx (w : Workloads.t) (srv : Proc.server) ~times =
  Proc.kill9 srv;
  let check = w.check () in
  let samples =
    Array.init times (fun _ ->
        let t0 = now () in
        let srv =
          Proc.spawn ~exe:ctx.exe ~flags:ctx.flags ~sock:ctx.sock
            ~data_dir:(data_dir ctx) ~log:(Filename.concat ctx.dir "server.log")
        in
        Fun.protect
          ~finally:(fun () -> Proc.kill9 srv)
          (fun () ->
            let c = await_ready ctx srv in
            first_answer ctx c check;
            let dt = now () -. t0 in
            Client.close c;
            dt))
  in
  median samples

type result = {
  setup_s : float;
  m : meter;  (** the window *)
  pm : meter;  (** the probes after it *)
  window_s : float;
  cpu_s : float;  (** server CPU over the window *)
  window_delta : scrape;
  life : scrape;  (** the live server's registry at the end *)
  recover_s : float;
  rss_mb : float;
  disk_write_amp : float;
}

(** The whole end-to-end run.  [setups] and [recoveries] are repeated
    and reported as medians; [recoveries = 0] skips recovery. *)
let run ctx (w : Workloads.t) ~warmup ~seconds ~setups ~recoveries =
  let attempts =
    Array.init setups (fun i ->
        let srv, c, dt = setup ctx w in
        if i < setups - 1 then begin
          Client.close c;
          Proc.kill9 srv
        end;
        (srv, c, dt))
  in
  let srv, c, _ = attempts.(setups - 1) in
  let setup_s = median (Array.map (fun (_, _, dt) -> dt) attempts) in
  let alive = ref true in
  Fun.protect
    ~finally:(fun () -> if !alive then Proc.kill9 srv)
    (fun () ->
      let conns =
        Array.init w.conns (fun i ->
            if i = 0 then c
            else
              match connect ctx.sock with
              | Result.Ok c -> c
              | Result.Error e -> failwith e)
      in
      window ctx w conns None ~until:(now () +. warmup);
      let m = meter () in
      (* write amplification over the window's mutations, or the
         probe's where the window has none: one kind of mutation either
         way, so the figure does not move with how many fit in the
         window.  Set-up is left out: its compactions race the BULK
         stream, so their count varies. *)
      let io () = (Proc.write_bytes srv.Proc.pid, ctx.payload_bytes) in
      let amp (w0, s0) (w1, s1) = ratio (w1 -. w0) (float_of_int (s1 - s0)) in
      let io0 = io () in
      let before = scrape ctx c in
      let cpu0 = Proc.cpu_seconds srv.Proc.pid in
      let t0 = now () in
      window ctx w conns (Some m) ~until:(t0 +. seconds);
      let t1 = now () in
      let cpu1 = Proc.cpu_seconds srv.Proc.pid in
      let io1 = io () in
      let after = scrape ctx c in
      let pm = meter () in
      probe ctx w c pm;
      run_checks ctx.a ctx.ck;
      let io2 = io () in
      let life = scrape ctx c in
      let rss_mb = Proc.peak_rss_mb srv.Proc.pid in
      let disk_write_amp = if snd io1 > snd io0 then amp io0 io1 else amp io1 io2 in
      Array.iteri (fun i c -> if i > 0 then Client.close c) conns;
      let recover_s =
        if recoveries = 0 then 0.0
        else begin
          quiesce ctx c w;
          Client.close c;
          alive := false;
          recover ctx w srv ~times:recoveries
        end
      in
      {
        setup_s;
        m;
        pm;
        window_s = t1 -. t0 -. m.paused;
        cpu_s = cpu1 -. cpu0;
        window_delta = delta after before;
        life;
        recover_s;
        rss_mb;
        disk_write_amp;
      })
