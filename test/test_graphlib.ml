(* Unit and property tests for the graph substrate: bit vectors, digraph
   operations, SCC, the transitive closure against its DFS and Warshall
   oracles at every pool width, and the domain pool underneath. *)

module Bitvec = Graphlib.Bitvec
module Graph = Graphlib.Graph
module Scc = Graphlib.Scc
module Closure = Graphlib.Closure
module Pool = Parallel.Pool

(* Pools are created with [Pool.create], not [Pool.global], so worker
   domains really spawn even on a single-core host — these tests must
   exercise cross-domain result assembly everywhere, not just on CI's
   multicore runners.  One pool per width, reused across every test and
   property below (the spawn-once contract). *)
let test_pools = lazy (List.map (fun j -> (j, Pool.create ~jobs:j ())) [ 1; 2; 4; 8 ])

(* ------------------------------ bitvec ------------------------------- *)

let test_bitvec_basics () =
  let v = Bitvec.create 130 in
  Alcotest.(check bool) "fresh bit unset" false (Bitvec.get v 0);
  Bitvec.set v 0;
  Bitvec.set v 63;
  Bitvec.set v 64;
  Bitvec.set v 129;
  Alcotest.(check bool) "bit 0" true (Bitvec.get v 0);
  Alcotest.(check bool) "bit 63" true (Bitvec.get v 63);
  Alcotest.(check bool) "bit 64" true (Bitvec.get v 64);
  Alcotest.(check bool) "bit 129" true (Bitvec.get v 129);
  Alcotest.(check bool) "bit 1" false (Bitvec.get v 1);
  Alcotest.(check int) "popcount" 4 (Bitvec.popcount v);
  Bitvec.clear v 63;
  Alcotest.(check bool) "cleared" false (Bitvec.get v 63);
  Alcotest.(check (list int)) "to_list" [ 0; 64; 129 ] (Bitvec.to_list v)

let test_bitvec_union_inter () =
  let a = Bitvec.create 100 and b = Bitvec.create 100 in
  Bitvec.set a 3;
  Bitvec.set a 70;
  Bitvec.set b 70;
  Bitvec.set b 99;
  let i = Bitvec.inter ~a ~b in
  Alcotest.(check (list int)) "inter" [ 70 ] (Bitvec.to_list i);
  let changed = Bitvec.union_into ~src:b ~dst:a in
  Alcotest.(check bool) "union changed" true changed;
  Alcotest.(check (list int)) "union" [ 3; 70; 99 ] (Bitvec.to_list a);
  let changed2 = Bitvec.union_into ~src:b ~dst:a in
  Alcotest.(check bool) "idempotent union" false changed2

let test_bitvec_bounds () =
  let v = Bitvec.create 10 in
  Alcotest.check_raises "oob get" (Invalid_argument "Bitvec: index out of bounds")
    (fun () -> ignore (Bitvec.get v 10));
  Alcotest.check_raises "negative set" (Invalid_argument "Bitvec: index out of bounds")
    (fun () -> Bitvec.set v (-1))

let test_bitvec_empty () =
  let v = Bitvec.create 0 in
  Alcotest.(check int) "zero length" 0 (Bitvec.length v);
  Alcotest.(check int) "empty" 0 (Bitvec.popcount v)

(* ------------------------------- graph ------------------------------- *)

let test_graph_edges () =
  let g = Graph.create ~initial_nodes:4 () in
  Graph.add_edge g 0 1;
  Graph.add_edge g 1 2;
  Graph.add_edge g 0 1;
  (* duplicate ignored *)
  Alcotest.(check int) "edge count" 2 (Graph.edge_count g);
  Alcotest.(check bool) "mem" true (Graph.mem_edge g 0 1);
  Alcotest.(check bool) "not mem" false (Graph.mem_edge g 1 0);
  Alcotest.(check (list int)) "succ" [ 1 ] (Graph.successors g 0);
  Alcotest.(check (list int)) "pred" [ 1 ] (Graph.predecessors g 2)

let test_graph_reach () =
  let g = Graph.create ~initial_nodes:5 () in
  Graph.add_edge g 0 1;
  Graph.add_edge g 1 2;
  Graph.add_edge g 3 4;
  Alcotest.(check bool) "0 reaches 2" true (Graph.reaches g 0 2);
  Alcotest.(check bool) "2 not reaches 0" false (Graph.reaches g 2 0);
  Alcotest.(check bool) "reflexive" true (Graph.reaches g 2 2);
  Alcotest.(check bool) "cross component" false (Graph.reaches g 0 4);
  Alcotest.(check (list int)) "reachable set" [ 0; 1; 2 ]
    (Bitvec.to_list (Graph.reachable_from g 0));
  Alcotest.(check (list int)) "ancestors" [ 0; 1; 2 ]
    (Bitvec.to_list (Graph.ancestors g 2))

let test_graph_grow () =
  let g = Graph.create () in
  let a = Graph.add_node g in
  let b = Graph.add_node g in
  Graph.ensure_nodes g 100;
  Graph.add_edge g a 99;
  Graph.add_edge g b 50;
  Alcotest.(check int) "node count" 100 (Graph.node_count g);
  Alcotest.(check bool) "edge to grown node" true (Graph.mem_edge g 0 99)

let test_graph_transpose () =
  let g = Graph.create ~initial_nodes:3 () in
  Graph.add_edge g 0 1;
  Graph.add_edge g 1 2;
  let t = Graph.transpose g in
  Alcotest.(check bool) "reversed" true (Graph.mem_edge t 1 0);
  Alcotest.(check bool) "reversed 2" true (Graph.mem_edge t 2 1);
  Alcotest.(check int) "same edge count" 2 (Graph.edge_count t)

let test_graph_topo () =
  let g = Graph.create ~initial_nodes:4 () in
  Graph.add_edge g 0 1;
  Graph.add_edge g 0 2;
  Graph.add_edge g 1 3;
  Graph.add_edge g 2 3;
  let order = Graph.topological_order g in
  let pos v = Option.get (List.find_index (Int.equal v) order) in
  Alcotest.(check bool) "0 before 1" true (pos 0 < pos 1);
  Alcotest.(check bool) "1 before 3" true (pos 1 < pos 3);
  Alcotest.(check bool) "2 before 3" true (pos 2 < pos 3);
  Graph.add_edge g 3 0;
  Alcotest.check_raises "cyclic" (Failure "Graph.topological_order: graph is cyclic")
    (fun () -> ignore (Graph.topological_order g))

(* -------------------------------- scc -------------------------------- *)

let test_scc_basic () =
  let g = Graph.create ~initial_nodes:6 () in
  (* cycle 0-1-2, chain to 3, separate cycle 4-5 *)
  Graph.add_edge g 0 1;
  Graph.add_edge g 1 2;
  Graph.add_edge g 2 0;
  Graph.add_edge g 2 3;
  Graph.add_edge g 4 5;
  Graph.add_edge g 5 4;
  let r = Scc.tarjan g in
  Alcotest.(check int) "three components" 3 r.Scc.count;
  Alcotest.(check int) "0,1,2 together" r.Scc.component.(0) r.Scc.component.(1);
  Alcotest.(check int) "0,1,2 together'" r.Scc.component.(0) r.Scc.component.(2);
  Alcotest.(check bool) "3 alone" true (r.Scc.component.(3) <> r.Scc.component.(0));
  Alcotest.(check int) "4,5 together" r.Scc.component.(4) r.Scc.component.(5);
  (* Tarjan ids are reverse topological: component of 0 reaches
     component of 3, so it must have the larger id. *)
  Alcotest.(check bool) "reverse topo ids" true
    (r.Scc.component.(0) > r.Scc.component.(3))

let test_scc_deep_chain () =
  (* a 50_000-node chain must not blow the stack (iterative Tarjan) *)
  let n = 50_000 in
  let g = Graph.create ~initial_nodes:n () in
  for i = 0 to n - 2 do
    Graph.add_edge g i (i + 1)
  done;
  let r = Scc.tarjan g in
  Alcotest.(check int) "all singleton" n r.Scc.count

let test_condensation () =
  let g = Graph.create ~initial_nodes:4 () in
  Graph.add_edge g 0 1;
  Graph.add_edge g 1 0;
  Graph.add_edge g 1 2;
  Graph.add_edge g 2 3;
  let r = Scc.tarjan g in
  let dag = Scc.condensation g r in
  Alcotest.(check int) "dag nodes" 3 (Graph.node_count dag);
  Alcotest.(check int) "dag edges" 2 (Graph.edge_count dag);
  (* the condensation of anything is acyclic *)
  Alcotest.(check int) "topo works" 3 (List.length (Graph.topological_order dag))

(* ------------------------------ closure ------------------------------ *)

(* the closure inline and on pools of width 1, 2 and 4 *)
let closure_cases g =
  Closure.compute g
  :: List.filter_map
       (fun (j, pool) -> if j <= 4 then Some (Closure.compute ~pool g) else None)
       (Lazy.force test_pools)

let test_closure_simple () =
  let g = Graph.create ~initial_nodes:4 () in
  Graph.add_edge g 0 1;
  Graph.add_edge g 1 2;
  List.iter
    (fun c ->
      Alcotest.(check bool) "0->2" true (Closure.reaches c 0 2);
      Alcotest.(check bool) "reflexive" true (Closure.reaches c 3 3);
      Alcotest.(check bool) "no back" false (Closure.reaches c 2 0))
    (closure_cases g)

let test_closure_cycle () =
  let g = Graph.create ~initial_nodes:3 () in
  Graph.add_edge g 0 1;
  Graph.add_edge g 1 0;
  Graph.add_edge g 1 2;
  List.iter
    (fun c ->
      Alcotest.(check bool) "cycle 0->0" true (Closure.reaches c 0 0);
      Alcotest.(check bool) "cycle 1->0" true (Closure.reaches c 1 0);
      Alcotest.(check bool) "0->2 through cycle" true (Closure.reaches c 0 2))
    (closure_cases g)

let test_closure_ancestors () =
  let g = Graph.create ~initial_nodes:4 () in
  Graph.add_edge g 0 2;
  Graph.add_edge g 1 2;
  Graph.add_edge g 2 3;
  let c = Closure.compute g in
  Alcotest.(check (list int)) "ancestors of 3" [ 0; 1; 2; 3 ]
    (Bitvec.to_list (Closure.ancestors c 3));
  Alcotest.(check (list int)) "descendants of 0" [ 0; 2; 3 ]
    (Bitvec.to_list (Closure.descendants c 0))

(* the closure of a 1.9k-axiom Galen-profile digraph, inline and on a
   two-domain pool, row for row against the DFS oracle *)
let test_closure_galen () =
  let tbox =
    Ontgen.Generator.generate (Ontgen.Generator.scale 0.02 Ontgen.Profiles.galen)
  in
  let g = Quonto.Encoding.graph (Quonto.Encoding.build tbox) in
  let dfs = Closure_oracle.dfs g in
  let pool = List.assoc 2 (Lazy.force test_pools) in
  Alcotest.(check bool) "inline = dfs" true
    (Closure_oracle.equal dfs (Closure_oracle.rows (Closure.compute g)));
  Alcotest.(check bool) "width 2 = dfs" true
    (Closure_oracle.equal dfs (Closure_oracle.rows (Closure.compute ~pool g)))

let test_on_demand () =
  let g = Graph.create ~initial_nodes:4 () in
  Graph.add_edge g 0 1;
  Graph.add_edge g 1 2;
  let od = Closure.On_demand.create g in
  Alcotest.(check bool) "od 0->2" true (Closure.On_demand.reaches od 0 2);
  Alcotest.(check bool) "od cached" true (Closure.On_demand.reaches od 0 1);
  Alcotest.(check bool) "od no" false (Closure.On_demand.reaches od 3 0)

(* ------------------------------- pool -------------------------------- *)

let test_pool_parallel_for () =
  List.iter
    (fun (jobs, pool) ->
      Alcotest.(check int) "width" jobs (Pool.jobs pool);
      (* every slot written exactly once, by its own index *)
      List.iter
        (fun n ->
          let out = Array.make (max n 1) (-1) in
          Pool.parallel_for pool ~n (fun i -> out.(i) <- i * i);
          for i = 0 to n - 1 do
            Alcotest.(check int) (Printf.sprintf "j%d n%d slot %d" jobs n i)
              (i * i) out.(i)
          done)
        [ 0; 1; 7; 64; 1000 ])
    (Lazy.force test_pools)

let test_pool_map_chunks () =
  List.iter
    (fun (jobs, pool) ->
      let ranges = Pool.map_chunks pool ~n:10 ~chunk:3 (fun lo hi -> (lo, hi)) in
      Alcotest.(check (list (pair int int)))
        (Printf.sprintf "ranges in order at %d jobs" jobs)
        [ (0, 3); (3, 6); (6, 9); (9, 10) ]
        ranges;
      Alcotest.(check (list (pair int int))) "empty" []
        (Pool.map_chunks pool ~n:0 ~chunk:3 (fun lo hi -> (lo, hi))))
    (Lazy.force test_pools)

let test_pool_reuse_and_errors () =
  let pool = Pool.create ~jobs:3 () in
  (* batches reuse the same domains; an exception in any task surfaces
     in the caller after the batch drains, and the pool stays usable *)
  let total = ref 0 in
  for _ = 1 to 50 do
    let acc = Array.make 100 0 in
    Pool.parallel_for pool ~n:100 (fun i -> acc.(i) <- 1);
    total := !total + Array.fold_left ( + ) 0 acc
  done;
  Alcotest.(check int) "50 reused batches" 5000 !total;
  Alcotest.check_raises "task exception propagates" (Invalid_argument "boom")
    (fun () ->
      Pool.parallel_for pool ~n:64 (fun i ->
          if i = 33 then invalid_arg "boom"));
  let out = Array.make 10 0 in
  Pool.parallel_for pool ~n:10 (fun i -> out.(i) <- i);
  Alcotest.(check int) "pool usable after error" 45 (Array.fold_left ( + ) 0 out);
  Pool.shutdown pool

(* ---------------------------- timed wait ----------------------------- *)

(* the caller's loop from [Timed.wait]'s contract: wait for [ready] or
   [until]; returns the instant the loop exited *)
let timed_wait_loop m c ready ~until =
  Mutex.lock m;
  while (not (ready ())) && Unix.gettimeofday () < until do
    Parallel.Timed.wait m c ~until
  done;
  Mutex.unlock m;
  Unix.gettimeofday ()

(* [bounded f] runs [f] on its own thread and returns its result; the
   test fails, instead of hanging, if [f] has not returned within 5 s *)
let bounded f =
  let m = Mutex.create () and result = ref None in
  let _ =
    Thread.create
      (fun () ->
        let v = f () in
        Mutex.lock m;
        result := Some v;
        Mutex.unlock m)
      ()
  in
  let deadline = Unix.gettimeofday () +. 5.0 in
  let rec poll () =
    Mutex.lock m;
    let v = !result in
    Mutex.unlock m;
    match v with
    | Some v -> v
    | None when Unix.gettimeofday () > deadline ->
      Alcotest.fail "timed wait still blocked after 5 s"
    | None ->
      Thread.delay 0.01;
      poll ()
  in
  poll ()

let test_timed_signalled () =
  let m = Mutex.create () and c = Condition.create () and set = ref false in
  let t0 = Unix.gettimeofday () in
  let signaller =
    Thread.create
      (fun () ->
        Thread.delay 0.05;
        Mutex.lock m;
        set := true;
        Condition.signal c;
        Mutex.unlock m)
      ()
  in
  let returned = timed_wait_loop m c (fun () -> !set) ~until:(t0 +. 5.0) in
  Thread.join signaller;
  Alcotest.(check bool) "woken by the signal" true !set;
  if returned -. t0 > 2.0 then
    Alcotest.failf "signalled waiter returned after %.3fs" (returned -. t0)

let test_timed_deadline () =
  let m = Mutex.create () and c = Condition.create () in
  let until = Unix.gettimeofday () +. 0.2 in
  let returned = bounded (fun () -> timed_wait_loop m c (fun () -> false) ~until) in
  if returned < until || returned >= until +. 0.5 then
    Alcotest.failf "unsignalled waiter returned %.3fs from its deadline"
      (returned -. until)

(* a short deadline registered after a long one still fires on time: a
   watchdog sleeping toward the wrong deadline would hold it ~5 s *)
let test_timed_two_waiters () =
  let t0 = Unix.gettimeofday () in
  let long_m = Mutex.create () and long_c = Condition.create () in
  let release = ref false and long_returned = ref None in
  let long =
    Thread.create
      (fun () ->
        let r =
          timed_wait_loop long_m long_c (fun () -> !release) ~until:(t0 +. 5.0)
        in
        Mutex.lock long_m;
        long_returned := Some r;
        Mutex.unlock long_m)
      ()
  in
  Thread.delay 0.02;
  let m = Mutex.create () and c = Condition.create () in
  let until = t0 +. 0.1 in
  let returned = bounded (fun () -> timed_wait_loop m c (fun () -> false) ~until) in
  if returned < until || returned >= until +. 0.5 then
    Alcotest.failf "0.1 s waiter returned %.3fs from its deadline"
      (returned -. until);
  Mutex.lock long_m;
  let early = !long_returned in
  release := true;
  Condition.signal long_c;
  Mutex.unlock long_m;
  Thread.join long;
  Alcotest.(check bool) "5 s waiter still waiting" true (early = None)

(* Random graph generator for the agreement property. *)
let gen_graph =
  QCheck.Gen.(
    let* n = int_range 1 25 in
    let* edges = list_size (int_bound 60) (pair (int_bound (n - 1)) (int_bound (n - 1))) in
    return (n, edges))

let arbitrary_graph =
  QCheck.make
    ~print:(fun (n, es) ->
      Printf.sprintf "n=%d edges=[%s]" n
        (String.concat "; " (List.map (fun (u, v) -> Printf.sprintf "%d->%d" u v) es)))
    gen_graph

let build_graph (n, es) =
  let g = Graph.create ~initial_nodes:n () in
  List.iter (fun (u, v) -> Graph.add_edge g u v) es;
  g

let prop_closure_agree =
  QCheck.Test.make ~count:300 ~name:"closure algorithms agree" arbitrary_graph
    (fun spec ->
      let g = build_graph spec in
      let dfs = Closure_oracle.dfs g in
      Closure_oracle.equal dfs (Closure_oracle.warshall g)
      && List.for_all
           (fun c -> Closure_oracle.equal dfs (Closure_oracle.rows c))
           (closure_cases g))

(* the inline closure is the sequential Tarjan condensation (the former
   [Scc_condense]); its pool runs must match it row for row *)
let prop_parallel_closure_agree =
  QCheck.Test.make ~count:150
    ~name:"parallel closures equal Scc_condense at jobs 1/2/4/8" arbitrary_graph
    (fun spec ->
      let g = build_graph spec in
      let reference = Closure_oracle.rows (Closure.compute g) in
      List.for_all
        (fun (_, pool) ->
          Closure_oracle.equal reference (Closure_oracle.rows (Closure.compute ~pool g)))
        (Lazy.force test_pools))

let prop_closure_transitive =
  QCheck.Test.make ~count:200 ~name:"closure is transitive" arbitrary_graph
    (fun spec ->
      let g = build_graph spec in
      let c = Closure.compute g in
      let n = Graph.node_count g in
      let ok = ref true in
      for u = 0 to n - 1 do
        for v = 0 to n - 1 do
          for w = 0 to n - 1 do
            if Closure.reaches c u v && Closure.reaches c v w then
              if not (Closure.reaches c u w) then ok := false
          done
        done
      done;
      !ok)

let prop_closure_vs_bfs =
  QCheck.Test.make ~count:300 ~name:"closure matches direct search" arbitrary_graph
    (fun spec ->
      let g = build_graph spec in
      let c = Closure.compute g in
      let n = Graph.node_count g in
      let ok = ref true in
      for u = 0 to n - 1 do
        for v = 0 to n - 1 do
          if Closure.reaches c u v <> Graph.reaches g u v then ok := false
        done
      done;
      !ok)

let prop_scc_sound =
  QCheck.Test.make ~count:300 ~name:"scc equivalence = mutual reachability"
    arbitrary_graph (fun spec ->
      let g = build_graph spec in
      let r = Scc.tarjan g in
      let n = Graph.node_count g in
      let ok = ref true in
      for u = 0 to n - 1 do
        for v = 0 to n - 1 do
          let same = r.Scc.component.(u) = r.Scc.component.(v) in
          let mutual = Graph.reaches g u v && Graph.reaches g v u in
          if same <> mutual then ok := false
        done
      done;
      !ok)

let () =
  Alcotest.run "graphlib"
    [
      ( "bitvec",
        [
          Alcotest.test_case "basics" `Quick test_bitvec_basics;
          Alcotest.test_case "union/inter" `Quick test_bitvec_union_inter;
          Alcotest.test_case "bounds" `Quick test_bitvec_bounds;
          Alcotest.test_case "empty" `Quick test_bitvec_empty;
        ] );
      ( "graph",
        [
          Alcotest.test_case "edges" `Quick test_graph_edges;
          Alcotest.test_case "reachability" `Quick test_graph_reach;
          Alcotest.test_case "growth" `Quick test_graph_grow;
          Alcotest.test_case "transpose" `Quick test_graph_transpose;
          Alcotest.test_case "topological order" `Quick test_graph_topo;
        ] );
      ( "scc",
        [
          Alcotest.test_case "basic components" `Quick test_scc_basic;
          Alcotest.test_case "deep chain (iterative)" `Quick test_scc_deep_chain;
          Alcotest.test_case "condensation" `Quick test_condensation;
        ] );
      ( "closure",
        [
          Alcotest.test_case "simple" `Quick test_closure_simple;
          Alcotest.test_case "cycle" `Quick test_closure_cycle;
          Alcotest.test_case "ancestors" `Quick test_closure_ancestors;
          Alcotest.test_case "on-demand" `Quick test_on_demand;
          Alcotest.test_case "galen x0.02 = dfs oracle" `Quick test_closure_galen;
        ] );
      ( "pool",
        [
          Alcotest.test_case "parallel_for assembly" `Quick test_pool_parallel_for;
          Alcotest.test_case "map_chunks order" `Quick test_pool_map_chunks;
          Alcotest.test_case "reuse and error propagation" `Quick
            test_pool_reuse_and_errors;
          Alcotest.test_case "timed wait: signal beats deadline" `Quick
            test_timed_signalled;
          Alcotest.test_case "timed wait: deadline without signal" `Quick
            test_timed_deadline;
          Alcotest.test_case "timed wait: short deadline beside a long one"
            `Quick test_timed_two_waiters;
        ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [
            prop_closure_agree;
            prop_parallel_closure_agree;
            prop_closure_transitive;
            prop_closure_vs_bfs;
            prop_scc_sound;
          ] );
    ]
