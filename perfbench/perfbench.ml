(* The benchmark program.  One run: the end-to-end phases against the real
   server (set-up, timed window, probes, recovery), then, with --trace 1,
   the traced in-process replay.  The last line of stdout is the result
   object; a "meta" line before it carries the noise witness. *)

open Stats

let usage =
  "perfbench --workload W --seed N --seconds S --trace 0|1 --server EXE \
   --server-flags FLAGS [--scale full|tiny]"

type args = {
  mutable workload : string;
  mutable seed : int;
  mutable seconds : float;
  mutable trace : bool;
  mutable server : string;
  mutable flags : string list;
  mutable scale : Inputs.scale;
}

let parse_args () =
  let a =
    { workload = ""; seed = 1; seconds = 0.0; trace = false; server = "";
      flags = []; scale = Inputs.full }
  in
  let rec go = function
    | "--workload" :: w :: rest -> a.workload <- w; go rest
    | "--seed" :: n :: rest -> a.seed <- int_of_string n; go rest
    | "--seconds" :: s :: rest -> a.seconds <- float_of_string s; go rest
    | "--trace" :: t :: rest -> a.trace <- t = "1"; go rest
    | "--server" :: e :: rest -> a.server <- e; go rest
    | "--server-flags" :: f :: rest ->
      a.flags <- List.filter (fun s -> s <> "") (String.split_on_char ' ' f);
      go rest
    | "--scale" :: "tiny" :: rest -> a.scale <- Inputs.tiny; go rest
    | "--scale" :: "full" :: rest -> a.scale <- Inputs.full; go rest
    | [] -> ()
    | x :: _ -> prerr_endline ("unknown argument " ^ x ^ "\n" ^ usage); exit 2
  in
  go (List.tl (Array.to_list Sys.argv));
  (* no default run length: BENCHMARK.json's run_seconds sets it *)
  if a.workload = "" || a.server = "" || a.seconds <= 0.0 then (prerr_endline usage; exit 2);
  a

let rec flag_value name = function
  | f :: v :: _ when f = name -> Some v
  | _ :: rest -> flag_value name rest
  | [] -> None

(* set-ups and recoveries are repeated and reported as medians: each
   takes a fraction of a second, too short to average out the
   second-to-second speed changes of a shared machine *)
let warmup = 1.0
let setups = 9
let recoveries = 15

(* cycles of the traced replay: a few seconds of each stream *)
let traced_cycles = function
  | "point-lookup" -> 4000
  | "join-update" -> 40
  | _ -> 12

(* everything a run writes, inside the checkout *)
let dir = ".perfbench_run"

let json_metrics metrics =
  "{"
  ^ String.concat ", "
      (List.map
         (fun (name, value, unit) ->
           Printf.sprintf "%S: {\"value\": %.17g, \"unit\": %S}" name value unit)
         metrics)
  ^ "}"

let () =
  let a = parse_args () in
  let snapshot_bytes =
    match flag_value "--snapshot-bytes" a.flags with
    | Some v -> int_of_string v
    | None -> failwith "the server flags must set --snapshot-bytes"
  in
  if not (Sys.file_exists dir) then Unix.mkdir dir 0o755;
  Proc.rm_rf (Filename.concat dir "server.log");
  let ctx =
    { Drive.exe = a.server; flags = a.flags; dir;
      sock = Filename.concat dir "s.sock"; snapshot_bytes; a = Drive.acct ();
      ck = Drive.checks (); payload_bytes = 0 }
  in
  (* noise witness, before the workload *)
  let fsync_s = Proc.fsync_probe ~n:50 dir in
  let load0 = Proc.loadavg () in
  let steal0, total0 = Proc.cpu_jiffies () in
  let seed = a.seed and scale = a.scale in
  let make () =
    match Workloads.make a.workload ~seed ~scale with
    | Some w -> w
    | None ->
      prerr_endline ("unknown workload " ^ a.workload);
      exit 2
  in
  let w = make () in
  (* the traced run measures layers only: one set-up, no recovery *)
  let r =
    Drive.run ctx w ~warmup ~seconds:a.seconds
      ~setups:(if a.trace then 1 else setups)
      ~recoveries:(if a.trace then 0 else recoveries)
  in
  let m = r.Drive.m and pm = r.Drive.pm in
  let both f = Array.append (Samples.to_array (f m)) (Samples.to_array (f pm)) in
  let asks = Samples.to_array m.Drive.asks in
  let ops = float_of_int m.Drive.ops in
  let metrics =
    if not a.trace then
      [
        ("setup_s", r.Drive.setup_s, "s");
        ("ask_p50_ms", 1000.0 *. percentile 0.50 asks, "ms");
        ("ask_p95_ms", 1000.0 *. percentile 0.95 asks, "ms");
        ("ops_per_s", ratio ops r.Drive.window_s, "1/s");
        ("cpu_ms_per_op", 1000.0 *. ratio r.Drive.cpu_s ops, "ms");
        ("write_p50_ms", 1000.0 *. median (both (fun m -> m.Drive.writes)), "ms");
        ("edit_to_answer_ms", 1000.0 *. median (both (fun m -> m.Drive.edits)), "ms");
        ("recover_s", r.Drive.recover_s, "s");
        ("rss_mb", r.Drive.rss_mb, "MB");
        ("disk_write_amp", r.Drive.disk_write_amp, "ratio");
      ]
    else begin
      let d = r.Drive.window_delta in
      let op_sum label = sum_family d "obda_op_seconds_sum" [ ("op", label) ] in
      let op_count label = sum_family d "obda_op_seconds_count" [ ("op", label) ] in
      let phase_sum ph = sum_family d "obda_phase_seconds_sum" [ ("phase", ph) ] in
      let phase_mean_ms ph =
        1000.0 *. ratio (phase_sum ph) (sum_family d "obda_phase_seconds_count" [ ("phase", ph) ])
      in
      let hit_ratio cache =
        let h = sum_family d "obda_cache_hits_total" [ ("cache", cache) ] in
        ratio h (h +. sum_family d "obda_cache_misses_total" [ ("cache", cache) ])
      in
      let req_sum = get d "obda_request_seconds_sum" and req_n = get d "obda_request_seconds_count" in
      let asks_n = op_count "ask" in
      let writes_n = float_of_int (Samples.count m.Drive.writes) in
      (* the replay rebuilds the inputs from the same seed, so it sends
         the stream the end-to-end run sent, from its first cycle *)
      let traced =
        Traced.run ~dir ~name:a.workload ~w:(make ()) ~cycles:(traced_cycles a.workload)
          ~snapshot_bytes
      in
      [
        ("serve.dispatch_self_ms",
         1000.0 *. ratio (req_sum -. sum_family d "obda_op_seconds_sum" []) req_n, "ms");
        ("net.client_self_ms", 1000.0 *. ratio (m.Drive.req_s -. req_sum) ops, "ms");
        ("service.ask_self_ms",
         1000.0
         *. ratio
              (op_sum "ask" -. phase_sum "rewrite" -. phase_sum "rewrite.prepare" -. phase_sum "eval")
              asks_n, "ms");
        ("cache.answer_hit_ratio", hit_ratio "answers", "ratio");
        ("cache.rewrite_hit_ratio", hit_ratio "rewrite", "ratio");
        ("cache.classify_hit_ratio", hit_ratio "classify", "ratio");
        ("rewrite.ms_per_rewrite", phase_mean_ms "rewrite", "ms");
        ("rewrite.ucq_disjuncts",
         ratio (get d "obda_rewrite_ucq_disjuncts_sum") (get d "obda_rewrite_ucq_disjuncts_count"),
         "count");
        ("eval.ms_per_ask", 1000.0 *. ratio (phase_sum "eval") asks_n, "ms");
        ("eval.index_probes_per_ask", ratio (get d "obda_index_probes_total") asks_n, "count");
        ("eval.rows_per_ask", ratio (float_of_int m.Drive.rows) (float_of_int (Array.length asks)), "count");
        ("classify.encode_ms", phase_mean_ms "classify.encode", "ms");
        ("classify.closure_ms", phase_mean_ms "classify.closure", "ms");
        ("classify.unsat_ms", phase_mean_ms "classify.unsat", "ms");
        ("wal.fsyncs_per_write", ratio (get d "obda_wal_fsyncs_total") writes_n, "count");
        ("wal.bytes_per_write",
         ratio (get d "obda_wal_bytes_written_total") (get d "obda_wal_appends_total"), "B");
        ("store.snapshots", get r.Drive.life "obda_snapshots_total", "count");
      ]
      @ traced
    end
  in
  let steal1, total1 = Proc.cpu_jiffies () in
  Printf.printf
    "meta {\"workload\": %S, \"seed\": %d, \"nproc\": %d, \"steal_share\": %.6f, \
     \"fsync_probe_ms\": %.6f, \"loadavg_start\": %.2f, \"loadavg_end\": %.2f, \
     \"server_flags\": %S, \"window_ops\": %d, \"window_s\": %.6f}\n"
    a.workload a.seed
    (Domain.recommended_domain_count ())
    (ratio (steal1 -. steal0) (total1 -. total0))
    (1000.0 *. fsync_s) load0 (Proc.loadavg ()) (String.concat " " a.flags)
    m.Drive.ops r.Drive.window_s;
  List.iter (fun n -> prerr_endline ("failed op: " ^ n)) (List.rev ctx.Drive.a.Drive.notes);
  let failed = Atomic.get ctx.Drive.a.Drive.failed in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": %s}\n%!"
    (failed = 0) (Atomic.get ctx.Drive.a.Drive.attempted) failed (json_metrics metrics)
