(* Benchmark and reproduction harness.

   Regenerates every experimental artefact of the paper (DESIGN.md's
   experiment index): the three Figure-1 panels, the headline
   reductions and the ablations, each printed as a table so the output
   can be diffed against EXPERIMENTS.md.  Every section also records
   what it measured as rows of {section; metric; value; unit; gate}.

   [--json PATH] writes the rows and the Figure-1 series as one JSON
   document (default BENCH_nocplan.json); [--smoke] runs only the
   sections whose rows are gated, at CI size; [--gate BASELINE] checks
   this run's rows against a recorded document and exits 1 if any
   check fails.  The gate kinds are described at [gate] below. *)

module Itc02 = Nocplan_itc02
module Noc = Nocplan_noc
module Proc = Nocplan_proc
module Core = Nocplan_core
module Obs = Nocplan_obs
module Serve = Nocplan_serve
module Fault = Nocplan_fault
module Corpus_lib = Nocplan_corpus
open Core

let section title =
  Fmt.pr "@.=== %s ===@.@." title

(* ------------------------------------------------------------------ *)
(* Rows                                                                *)

(* What the gate does with a row. *)
type gate =
  | Record  (* written, never checked *)
  | At_least of float  (* a property of this run alone *)
  | At_most of float
  | Not_above_baseline
      (* a deterministic value (a makespan): at most the baseline's,
         with no tolerance *)
  | Time of float
      (* a calibrated time ratio (see [time_row]): at most the
         baseline's plus this relative tolerance, checked only when
         this host's calibration loop runs within [host_tolerance] of
         the baseline host's *)

type row = {
  section : string;
  metric : string;
  value : float;
  unit_ : string;
  gate : gate;
}

(* Every row of this run, newest first. *)
let rows : row list ref = ref []

let emit ?(gate = Record) section metric unit_ value =
  rows := { section; metric; value; unit_; gate } :: !rows

let emit_int ?gate section metric unit_ n =
  emit ?gate section metric unit_ (float_of_int n)

let now = Unix.gettimeofday

let wall f =
  let t0 = now () in
  let r = f () in
  (r, now () -. t0)

(* The fastest of [n] runs of [f], in seconds. *)
let best_of n f =
  List.fold_left min infinity (List.init n (fun _ -> snd (wall f)))

(* The wall time of a whole section, recorded. *)
let timed name f =
  let r, seconds = wall f in
  emit name "seconds" "s" seconds;
  r

let median xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  a.(Array.length a / 2)

(* A fixed mix of hashing, allocation and sorting, about 9 ms on a
   2-vCPU Xeon VM.  Timed between the repetitions of every [Time] row,
   it measures how fast this host runs at that moment. *)
let calibration_loop () =
  let acc = ref 0 in
  for r = 1 to 300 do
    let h = Hashtbl.create 64 and l = ref [] in
    for i = 0 to 199 do
      Hashtbl.replace h (((i * 7919) + r) mod 1009) i;
      l := (((i * 31) + r) mod 1000) :: !l
    done;
    acc := !acc + Hashtbl.length h + List.length (List.sort compare !l)
  done;
  ignore (Sys.opaque_identity !acc)

(* Every calibration-loop time of this run, in seconds: their median
   is the run's "host calibration_ms" row. *)
let calibration = ref []

(* Run [f] 15 times with a calibration loop before the first run and
   after each run, and record the median run time, raw and calibrated:
   the median over runs of the run's time divided by the mean of the
   two loops around it.  On a shared VM the host's speed drifts by
   tens of percent within a second, so only loops timed right next to
   a run cancel it.  Each call's [tolerance] covers that row's spread
   over eight smoke processes of one build on a 2-vCPU VM: figure1
   5.86-6.27, A7 1.71-1.84, A12 15.07-17.32 (a scheduler made 30%
   slower read 19.6-21.2), and anneal:placement, whose two chains run
   on two domains, 11.90-17.58.  Returns the first run's result. *)
let time_row ~tolerance name f =
  let loop () = snd (wall calibration_loop) in
  let loops = ref [ loop () ] and runs = ref [] in
  let run () =
    let r, seconds = wall f in
    let after = loop () in
    runs := (seconds, seconds /. ((List.hd !loops +. after) /. 2.0)) :: !runs;
    loops := after :: !loops;
    r
  in
  let r = run () in
  for _ = 2 to 15 do
    ignore (run ())
  done;
  calibration := !loops @ !calibration;
  let seconds = median (List.map fst !runs) in
  let ratio = median (List.map snd !runs) in
  Fmt.pr "%s: %.4f s (median of 15), %.2f calibration loops@." name seconds
    ratio;
  emit name "seconds" "s" seconds;
  emit ~gate:(Time tolerance) name "time" "calibration loops" ratio;
  r

(* ------------------------------------------------------------------ *)
(* A2: NoC characterization (paper flow, step 1)                      *)

let noc_characterization () =
  section "A2: NoC characterization (flit-level simulator)";
  let topology = Noc.Topology.make ~width:5 ~height:5 in
  let latency = Noc.Latency.hermes_like in
  let config = Noc.Flit_sim.config topology latency in
  let timing = Noc.Characterize.measure_timing config in
  Fmt.pr "true parameters:     %a@." Noc.Latency.pp latency;
  Fmt.pr "measured on the sim: %a@." Noc.Characterize.pp_timing timing;
  let power =
    Noc.Characterize.measure_power config (Noc.Traffic.spec ~packets:400 ())
  in
  Fmt.pr "mean stream power (random size/payload packets): %a@." Noc.Power.pp
    power

(* ------------------------------------------------------------------ *)
(* A3: processor characterization (paper flow, step 2)                *)

let processor_characterization () =
  section "A3: processor test-application characterization (ISS)";
  List.iter
    (fun p -> Fmt.pr "%a@.@." Proc.Processor.pp p)
    [ Proc.Processor.leon ~id:1; Proc.Processor.plasma ~id:1 ];
  Fmt.pr
    "paper's assumption: \"the processor takes 10 clock cycles to generate a \
     test pattern\" — measured Leon BIST: %d cycles/pattern@."
    (Proc.Processor.generation_overhead (Proc.Processor.leon ~id:1)
       Proc.Processor.Bist)

(* ------------------------------------------------------------------ *)
(* F1a-F1c: Figure 1, T1: headline reductions                         *)

(* The Figure-1 production, timed: for each system one shared access
   table and both sweeps, unconstrained and power-constrained. *)
let figure1 systems =
  section "F1: Figure-1 sweeps (three systems, both power settings)";
  time_row ~tolerance:0.15 "figure1" (fun () ->
      List.map
        (fun (name, system) ->
          let access = Test_access.table system in
          let unconstrained = Planner.reuse_sweep ~access system in
          let constrained =
            Planner.reuse_sweep ~access
              ~power_limit_pct:Experiments.binding_power_pct system
          in
          (name, unconstrained, constrained))
        systems)

let figure1_tables panels =
  List.iter
    (fun (name, unconstrained, constrained) ->
      section (Printf.sprintf "F1: Figure 1 panel — %s" name);
      Fmt.pr
        "power limit for the constrained series: %.0f%% of total core power@."
        Experiments.binding_power_pct;
      print_string (Report.figure1_table ~unconstrained ~constrained);
      Fmt.pr "@.";
      print_string
        (Report.ascii_chart
           [ ("no power limit", unconstrained);
             ( Printf.sprintf "power %.0f%%" Experiments.binding_power_pct,
               constrained ) ]))
    panels;
  section "T1: headline test-time reductions (paper: d695 28%, p93791 44%, 37% under power)";
  List.iter
    (fun (name, unconstrained, constrained) ->
      let free = Report.headline unconstrained in
      let limited = Report.headline constrained in
      Fmt.pr "%-14s unconstrained: %5.1f%% (reuse %d)   power-limited: %5.1f%% (reuse %d)@."
        name free.Report.reduction_pct free.Report.best_reuse
        limited.Report.reduction_pct limited.Report.best_reuse;
      emit "T1" ("reduction:" ^ name) "%" free.Report.reduction_pct;
      emit "T1" ("power_limited_reduction:" ^ name) "%"
        limited.Report.reduction_pct)
    panels

(* ------------------------------------------------------------------ *)
(* A1: greedy anomaly vs look-ahead                                   *)

let monotonicity_violations (s : Planner.sweep) =
  let rec go = function
    | (a : Planner.point) :: (b :: _ as rest) ->
        (if b.Planner.makespan > a.Planner.makespan then 1 else 0) + go rest
    | [ _ ] | [] -> 0
  in
  go s.Planner.points

let greedy_vs_lookahead () =
  section "A1: greedy anomaly on p22810_leon (paper section 3) vs look-ahead";
  let system = Experiments.p22810_leon () in
  let greedy = Planner.reuse_sweep system in
  let lookahead = Planner.reuse_sweep ~policy:Scheduler.Lookahead system in
  print_string
    (Report.comparison_table ~label_a:"greedy (paper)" ~label_b:"lookahead"
       greedy lookahead);
  Fmt.pr "monotonicity violations: greedy %d, lookahead %d@."
    (monotonicity_violations greedy)
    (monotonicity_violations lookahead)

(* ------------------------------------------------------------------ *)
(* A4: power-limit sensitivity                                        *)

let power_sensitivity () =
  section "A4: power-limit sensitivity (d695_leon, full reuse)";
  let system = Experiments.d695_leon () in
  let points =
    Planner.power_sweep ~reuse:6
      ~pcts:[ 100.0; 50.0; 40.0; 30.0; 25.0; 20.0 ]
      system
  in
  Fmt.pr "%-10s %-12s %-12s@." "limit %" "makespan" "peak power";
  List.iter
    (fun (pct, (p : Planner.point)) ->
      Fmt.pr "%-10.0f %-12d %-12.1f@." pct p.Planner.makespan
        p.Planner.peak_power)
    points

(* ------------------------------------------------------------------ *)
(* A5: number of external interfaces                                  *)

let io_port_sensitivity () =
  section "A5: external interface count (d695_leon, 1..4 port pairs)";
  Fmt.pr "%-8s %-12s %-12s %-10s@." "ports" "baseline" "best" "reduction";
  List.iter
    (fun ports ->
      let system = Experiments.d695_leon_with_io ~ports in
      let h = Report.headline (Planner.reuse_sweep system) in
      Fmt.pr "%-8d %-12d %-12d %-10.1f@." ports h.Report.baseline
        h.Report.best_makespan h.Report.reduction_pct)
    [ 1; 2; 3; 4 ];
  Fmt.pr
    "@.more external pins shrink the baseline, so the relative value of \
     processor reuse drops — the pin-cost economics the paper argues.@."

(* ------------------------------------------------------------------ *)
(* A6: processor placement                                            *)

let placement_sensitivity () =
  section "A6: processor placement (d695_leon arrangements)";
  Fmt.pr "%-10s %-12s %-12s %-10s@." "placement" "baseline" "best" "reduction";
  List.iter
    (fun a ->
      let system = Experiments.d695_leon_arranged a in
      let h = Report.headline (Planner.reuse_sweep system) in
      Fmt.pr "%-10s %-12d %-12d %-10.1f@."
        (Experiments.arrangement_name a)
        h.Report.baseline h.Report.best_makespan h.Report.reduction_pct)
    [ Experiments.Spread; Experiments.Corners; Experiments.Center ]

(* ------------------------------------------------------------------ *)
(* A7: greedy optimality gap on small instances                       *)

let optimality_gap () =
  section "A7: greedy vs certified optimum (branch and bound, small systems)";
  let small n_procs =
    let soc =
      Nocplan_itc02.Soc.make ~name:(Printf.sprintf "small%d" n_procs)
        ~modules:
          [
            Nocplan_itc02.Module_def.make ~id:1 ~name:"a" ~inputs:8 ~outputs:8
              ~scan_chains:[ 16; 16 ] ~patterns:10 ();
            Nocplan_itc02.Module_def.make ~id:2 ~name:"b" ~inputs:16
              ~outputs:4 ~scan_chains:[] ~patterns:25 ();
            Nocplan_itc02.Module_def.make ~id:3 ~name:"c" ~inputs:10
              ~outputs:40 ~scan_chains:[ 100; 90; 80 ] ~patterns:60 ();
            Nocplan_itc02.Module_def.make ~id:4 ~name:"d" ~inputs:20
              ~outputs:20 ~scan_chains:[ 40; 40 ] ~patterns:30 ();
          ]
    in
    System.build ~soc
      ~topology:(Noc.Topology.make ~width:3 ~height:3)
      ~processors:(List.init n_procs (fun _ -> Proc.Processor.leon ~id:1))
      ~io_inputs:[ Noc.Coord.make ~x:0 ~y:0 ]
      ~io_outputs:[ Noc.Coord.make ~x:2 ~y:2 ]
      ()
  in
  let results =
    time_row ~tolerance:0.20 "A7:optimality_gap" (fun () ->
        List.map
          (fun n ->
            let system = small n in
            let greedy =
              (Scheduler.run system (Scheduler.config ~reuse:n ()))
                .Schedule.makespan
            in
            (n, greedy, Exhaustive.schedule ~reuse:n system))
          [ 0; 1; 2 ])
  in
  Fmt.pr "%-8s %-10s %-10s %-8s %-8s@." "procs" "greedy" "optimal" "gap%"
    "nodes";
  List.iter
    (fun (n, greedy, (r : Exhaustive.result)) ->
      Fmt.pr "%-8d %-10d %-10d %-8.2f %-8d%s@." n greedy
        r.Exhaustive.schedule.Schedule.makespan
        (100.0
        *. (1.0
           -. float_of_int r.Exhaustive.schedule.Schedule.makespan
              /. float_of_int greedy))
        r.Exhaustive.nodes
        (if r.Exhaustive.exact then "" else " (budget hit)"))
    results

(* ------------------------------------------------------------------ *)
(* A8: cost model vs flit-level simulation                            *)

let model_validation () =
  section "A8: analytic cost model vs flit-level replay (downscaled d695_leon)";
  let system =
    Schedule_sim.downscale ~max_patterns:20 (Experiments.d695_leon ())
  in
  List.iter
    (fun reuse ->
      let sched = Planner.schedule ~reuse system in
      let r = Schedule_sim.replay system sched in
      Fmt.pr "reuse %d: worst slack %d cycles, max sim/analytic ratio %.3f@."
        reuse r.Schedule_sim.worst_slack r.Schedule_sim.max_ratio)
    [ 0; 3; 6 ]

(* ------------------------------------------------------------------ *)
(* A9: preemption                                                     *)

let preemption () =
  section "A9: preemptive scheduling (session splitting, d695_leon, full reuse)";
  let system = Experiments.d695_leon () in
  Fmt.pr "%-20s %-14s %-14s@." "max sessions" "no power limit"
    (Printf.sprintf "power %.0f%%" Experiments.binding_power_pct);
  let limit =
    Some (System.power_limit_of_pct system ~pct:Experiments.binding_power_pct)
  in
  List.iter
    (fun max_sessions ->
      let free =
        Preemptive.schedule system
          (Preemptive.config ~max_sessions ~reuse:6 ())
      in
      let limited =
        Preemptive.schedule system
          (Preemptive.config ~power_limit:limit ~max_sessions ~reuse:6 ())
      in
      Fmt.pr "%-20d %-14d %-14d@." max_sessions free.Preemptive.makespan
        limited.Preemptive.makespan)
    [ 1; 2; 3; 5 ];
  Fmt.pr
    "@.splitting does not pay here: every session re-pays setup, path fill \
     and drain, and the fixed chunking fragments the resource timeline — \
     evidence for the paper's non-preemptive choice under this cost model.@."

(* ------------------------------------------------------------------ *)
(* A10: flit width (TAM width)                                        *)

let flit_width_sweep () =
  section "A10: NoC flit width as TAM width (d695_leon)";
  Fmt.pr "%-8s %-12s %-12s %-10s@." "flits" "baseline" "best" "reduction";
  List.iter
    (fun width ->
      let system = Experiments.d695_leon_flit ~width in
      let h = Report.headline (Planner.reuse_sweep system) in
      Fmt.pr "%-8d %-12d %-12d %-10.1f@." width h.Report.baseline
        h.Report.best_makespan h.Report.reduction_pct)
    [ 8; 16; 32; 64 ];
  Fmt.pr
    "@.wider flits shorten every wrapper chain (the classic ITC'02 \
     TAM-width curve); the relative reuse gain is stable across widths.@."

(* ------------------------------------------------------------------ *)
(* A11: link failures                                                 *)

let fault_sweep () =
  section "A11: planning around failed NoC channels (d695_leon, full reuse)";
  Fmt.pr "%-10s %-12s %-12s@." "failures" "makespan" "vs fault-free";
  let fault_free =
    (Planner.schedule ~reuse:6 (Experiments.d695_leon ())).Schedule.makespan
  in
  List.iter
    (fun failures ->
      let system = Experiments.d695_leon_faulty ~failures ~seed:0xFA17L in
      match Planner.schedule ~reuse:6 system with
      | sched ->
          Fmt.pr "%-10d %-12d %+.1f%%@." failures sched.Schedule.makespan
            (100.0
            *. (float_of_int sched.Schedule.makespan
                /. float_of_int fault_free
               -. 1.0))
      | exception Scheduler.Unschedulable _ ->
          Fmt.pr "%-10d %-12s (a core is unreachable under XY routing)@."
            failures "infeasible")
    [ 0; 1; 2; 4; 6; 8 ]

(* ------------------------------------------------------------------ *)
(* A15: processor reuse across the whole ITC'02 corpus               *)

let corpus_sweep () =
  section "A15: reuse gains across the full ITC'02 corpus (4 Leons each)";
  Fmt.pr "%-10s %-8s %-12s %-12s %-10s@." "benchmark" "modules" "baseline"
    "best" "reduction";
  List.iter
    (fun soc ->
      let modules = Itc02.Soc.module_count soc + 4 in
      let side = int_of_float (ceil (sqrt (float_of_int modules))) in
      let topology = Noc.Topology.make ~width:side ~height:side in
      let system =
        System.build ~soc ~topology
          ~processors:(List.init 4 (fun _ -> Proc.Processor.leon ~id:1))
          ~io_inputs:[ Noc.Coord.make ~x:0 ~y:0 ]
          ~io_outputs:[ Noc.Coord.make ~x:(side - 1) ~y:(side - 1) ]
          ()
      in
      let h = Report.headline (Planner.reuse_sweep system) in
      Fmt.pr "%-10s %-8d %-12d %-12d %-10.1f@." soc.Itc02.Soc.name
        (Itc02.Soc.module_count soc)
        h.Report.baseline h.Report.best_makespan h.Report.reduction_pct)
    (Itc02.Benchmarks.all ())

(* ------------------------------------------------------------------ *)
(* A19: fault coverage of the software BIST patterns                  *)

let coverage_curve () =
  section "A19: stuck-at coverage growth of the software BIST LFSR";
  let cut = Proc.Coverage.cut ~seed:3L ~inputs:64 ~outputs:32 in
  let patterns =
    Proc.Coverage.lfsr_patterns ~seed:0xACE1 ~inputs:64 ~count:128
  in
  let curve = Proc.Coverage.run cut ~patterns in
  Fmt.pr "%-10s %-10s@." "patterns" "coverage";
  List.iteri
    (fun i detected ->
      let n = i + 1 in
      if List.mem n [ 1; 2; 4; 8; 16; 32; 64; 128 ] then
        Fmt.pr "%-10d %.3f@." n
          (float_of_int detected /. float_of_int curve.Proc.Coverage.total_faults))
    curve.Proc.Coverage.detected;
  Fmt.pr
    "@.the classical pseudo-random curve: most faults fall in the first \
     dozen patterns, a resistant tail saturates — grounding the hundreds of \
     patterns the benchmark cores specify.@."

(* ------------------------------------------------------------------ *)
(* A18: energy under power limits                                     *)

let energy_tradeoff () =
  section "A18: time/peak-power/energy trade-off (d695_leon, full reuse)";
  let system = Experiments.d695_leon () in
  Fmt.pr "%-10s %-12s %-12s %-14s %-14s@." "limit %" "makespan" "peak power"
    "total energy" "avg power";
  List.iter
    (fun pct ->
      let sched = Planner.schedule ~power_limit_pct:pct ~reuse:6 system in
      let m = Metrics.of_schedule system ~reuse:6 sched in
      Fmt.pr "%-10.0f %-12d %-12.1f %-14.3e %-14.1f@." pct
        m.Metrics.makespan m.Metrics.peak_power m.Metrics.total_energy
        m.Metrics.average_power)
    [ 100.0; 30.0; 25.0; 20.0 ];
  Fmt.pr
    "@.tight limits stretch the schedule and cap the peak, while the energy \
     (the work to be done) stays essentially constant — power limiting is a \
     scheduling, not an energy, lever.@."

(* ------------------------------------------------------------------ *)
(* A17: assumed vs measured test-data compression                     *)

let compression_measurement () =
  section
    "A17: decompression memory — assumed run-length vs measured on \
     synthesized ATPG-like data (d695)";
  let system = Experiments.d695_leon () in
  Fmt.pr "%-10s %-12s %-12s %-10s@." "core" "estimate" "measured" "ratio";
  List.iter
    (fun (m : Itc02.Module_def.t) ->
      let id = m.Itc02.Module_def.id in
      if not (System.is_processor_module system id) then begin
        let estimate = Test_access.decompression_footprint system ~module_id:id in
        let measured =
          Test_access.decompression_footprint_measured system ~module_id:id
        in
        Fmt.pr "%-10s %-12d %-12d %-10.2f@." m.Itc02.Module_def.name estimate
          measured
          (float_of_int estimate /. float_of_int measured)
      end)
    system.System.soc.Itc02.Soc.modules;
  (* On the big benchmark the difference decides which cores a
     small-memory processor can serve at all. *)
  let big = Experiments.p93791_leon () in
  let cuts =
    List.filter
      (fun (m : Itc02.Module_def.t) ->
        not (System.is_processor_module big m.Itc02.Module_def.id))
      big.System.soc.Itc02.Soc.modules
  in
  let count f =
    List.length
      (List.filter
         (fun (m : Itc02.Module_def.t) -> f m.Itc02.Module_def.id <= 8_192)
         cuts)
  in
  Fmt.pr
    "@.p93791 cores fitting Plasma's 8k-word memory: %d of %d by the \
     estimate, %d of %d measured — the conservative estimate under-uses \
     small-memory processors.@."
    (count (fun id -> Test_access.decompression_footprint big ~module_id:id))
    (List.length cuts)
    (count (fun id ->
         Test_access.decompression_footprint_measured big ~module_id:id))
    (List.length cuts)

(* ------------------------------------------------------------------ *)
(* A16: adaptive re-planning after a mid-session fault                *)

let replanning () =
  section "A16: adaptive re-planning after a mid-session channel failure";
  let system = Experiments.d695_leon () in
  let sched = Planner.schedule ~reuse:6 system in
  let failed =
    [
      Noc.Link.channel (Noc.Coord.make ~x:1 ~y:0) (Noc.Coord.make ~x:2 ~y:0);
      Noc.Link.channel (Noc.Coord.make ~x:2 ~y:1) (Noc.Coord.make ~x:2 ~y:0);
    ]
  in
  Fmt.pr "fault-free makespan: %d@." sched.Schedule.makespan;
  Fmt.pr "%-12s %-8s %-8s %-12s %-10s@." "event at" "kept" "voided"
    "new makespan" "penalty";
  List.iter
    (fun pct ->
      let at = sched.Schedule.makespan * pct / 100 in
      match Replan.after_fault ~reuse:6 ~at ~failed system sched with
      | r ->
          Fmt.pr "%-12d %-8d %-8d %-12d %+.1f%%@." at
            (List.length r.Replan.kept)
            (List.length r.Replan.voided)
            r.Replan.makespan
            (100.0
            *. (float_of_int r.Replan.makespan
                /. float_of_int sched.Schedule.makespan
               -. 1.0))
      | exception Scheduler.Unschedulable _ ->
          Fmt.pr "%-12d %-8s (remaining cores unreachable)@." at "-")
    [ 10; 30; 50; 70; 90 ]

(* ------------------------------------------------------------------ *)
(* A14: mesh vs torus                                                 *)

let mesh_vs_torus () =
  section "A14: mesh vs torus topology (same placements, wraparound channels)";
  Fmt.pr "%-14s %-22s %-22s@." "system" "mesh base/best" "torus base/best";
  List.iter
    (fun (name, system) ->
      let torus = Experiments.torus_variant system in
      let h_mesh = Report.headline (Planner.reuse_sweep system) in
      let h_torus = Report.headline (Planner.reuse_sweep torus) in
      Fmt.pr "%-14s %9d /%9d  %9d /%9d@." name h_mesh.Report.baseline
        h_mesh.Report.best_makespan h_torus.Report.baseline
        h_torus.Report.best_makespan)
    [
      ("d695_leon", Experiments.d695_leon ());
      ("p93791_leon", Experiments.p93791_leon ());
    ];
  Fmt.pr
    "@.wraparound channels shorten path fills and spread conflicts; gains \
     are modest because the per-pattern cadence, not the fill, dominates.@."

(* ------------------------------------------------------------------ *)
(* A13: NoC vs shared-bus test access (the paper's motivation)        *)

let bus_vs_noc () =
  section "A13: NoC vs shared-bus test access (related-work architectures)";
  Fmt.pr "%-14s %-12s %-14s %-14s %-8s@." "system" "bus (ext)" "bus (proc src)"
    "NoC (reuse)" "speedup";
  List.iter
    (fun (name, system) ->
      let reuse = List.length system.System.processors in
      let bus_ext = Bus_baseline.plan system in
      let bus_proc = Bus_baseline.plan ~use_processor_sources:true system in
      let noc = (Planner.schedule ~reuse system).Schedule.makespan in
      Fmt.pr "%-14s %-12d %-14d %-14d %-8.2f@." name
        bus_ext.Bus_baseline.makespan bus_proc.Bus_baseline.makespan noc
        (Bus_baseline.speedup system ~noc_makespan:noc bus_ext);
      ignore bus_proc)
    [
      ("d695_leon", Experiments.d695_leon ());
      ("p22810_leon", Experiments.p22810_leon ());
      ("p93791_leon", Experiments.p93791_leon ());
    ];
  Fmt.pr
    "@.on a bus, tests serialize and processor reuse buys nothing — the \
     spatial concurrency of the NoC is what the paper's method exploits.@."

(* ------------------------------------------------------------------ *)
(* A12: simulated annealing over test orders                          *)

let annealing () =
  section "A12: scheduler quality ladder (greedy / lookahead / annealed / optimal*)";
  let ladder =
    time_row ~tolerance:0.15 "A12:annealing" (fun () ->
        List.map
          (fun (name, system) ->
            let reuse = List.length system.System.processors in
            (* One access table per system, shared by all three ladder
               rungs (as every search user does via [?access]), so the
               annealing column measures the search itself. *)
            let access = Test_access.table system in
            let greedy =
              (Scheduler.run ~access system (Scheduler.config ~reuse ()))
                .Schedule.makespan
            in
            let lookahead =
              (Scheduler.run ~access system
                 (Scheduler.config ~policy:Scheduler.Lookahead ~reuse ()))
                .Schedule.makespan
            in
            let r, seconds =
              wall (fun () ->
                  Annealing.schedule ~iterations:250 ~access ~reuse system)
            in
            (name, greedy, lookahead, r, seconds))
          [
            ("d695_leon", Experiments.d695_leon ());
            ("p22810_leon", Experiments.p22810_leon ());
            ("p93791_leon", Experiments.p93791_leon ());
          ])
  in
  Fmt.pr "%-14s %-12s %-12s %-12s %-8s %-10s@." "system" "greedy" "lookahead"
    "annealed" "evals" "seconds";
  List.iter
    (fun (name, greedy, lookahead, (r : Annealing.result), seconds) ->
      let annealed = r.Annealing.schedule.Schedule.makespan in
      Fmt.pr "%-14s %-12d %-12d %-12d %-8d %-10.4f@." name greedy lookahead
        annealed r.Annealing.evaluations seconds;
      let s = "A12:annealing" in
      emit_int s ("greedy:" ^ name) "cycles" greedy;
      emit_int s ("lookahead:" ^ name) "cycles" lookahead;
      emit_int ~gate:Not_above_baseline s ("annealed:" ^ name) "cycles" annealed;
      emit_int s ("evaluations:" ^ name) "count" r.Annealing.evaluations)
    ladder;
  Fmt.pr
    "@.(*) certified optima are only tractable on small fixtures — see A7.@."

(* ------------------------------------------------------------------ *)
(* backend: greedy vs binpack, solo and raced                          *)

(* Race includes greedy among its racers and breaks ties in its
   favour, so a race result worse than greedy alone is a correctness
   bug, not a performance drift; every binpack schedule must clear the
   independent validator. *)
let backend_race systems =
  section "backend: greedy vs binpack vs race (test time and wall clock)";
  Fmt.pr "%-14s %-10s %-10s %-10s %-8s %-9s %-9s %-9s@." "system" "greedy"
    "binpack" "race" "winner" "greedy_s" "binpack_s" "race_s";
  List.iter
    (fun (name, system) ->
      let reuse = List.length system.System.processors in
      let access = Test_access.table system in
      let config = Scheduler.config ~reuse () in
      let greedy, greedy_seconds =
        wall (fun () -> Backend.solve Backend.greedy ~access system config)
      in
      let binpack, binpack_seconds =
        wall (fun () -> Backend.solve Backend.binpack ~access system config)
      in
      let binpack_valid =
        Schedule.validate ~access system ~application:config.application
          ~power_limit:config.power_limit ~reuse binpack
        = Ok ()
      in
      let outcome, race_seconds =
        wall (fun () -> Backend.race ~clock:now ~access system config)
      in
      let greedy = greedy.Schedule.makespan
      and binpack = binpack.Schedule.makespan
      and race = outcome.Backend.schedule.Schedule.makespan in
      Fmt.pr "%-14s %-10d %-10d %-10d %-8s %-9.4f %-9.4f %-9.4f@." name greedy
        binpack race outcome.Backend.winner greedy_seconds binpack_seconds
        race_seconds;
      let s = "backend:race" in
      emit_int s ("greedy:" ^ name) "cycles" greedy;
      emit_int s ("binpack:" ^ name) "cycles" binpack;
      emit_int s ("race:" ^ name) "cycles" race;
      emit_int ~gate:(At_most 0.0) s ("race_minus_greedy:" ^ name) "cycles"
        (race - greedy);
      emit ~gate:(At_least 1.0) s ("binpack_valid:" ^ name) "bool"
        (if binpack_valid then 1.0 else 0.0);
      emit s ("greedy_seconds:" ^ name) "s" greedy_seconds;
      emit s ("binpack_seconds:" ^ name) "s" binpack_seconds;
      emit s ("race_seconds:" ^ name) "s" race_seconds)
    systems;
  Fmt.pr
    "@.race wall clock pays one extra domain per backend; its test time is \
     min over the valid results, so it can only match or beat greedy.@."

(* ------------------------------------------------------------------ *)
(* A20: joint order+placement annealing                                *)

let placement_annealing () =
  section
    "anneal:placement — joint order+placement annealing (mesh vs torus, \
     same seed and budget)";
  let iterations = 150 and seed = 7L in
  let results =
    time_row ~tolerance:0.50 "anneal:placement" (fun () ->
        List.map
          (fun (name, system) ->
            let reuse = List.length system.System.processors in
            let order_only =
              Annealing.schedule ~iterations ~seed ~chains:1 ~reuse system
            in
            (* Chain 0 stays order-only, so the joint run is never
               worse than the order-only one under the same seed; the
               comparison isolates what the placement dimension itself
               buys. *)
            let joint, seconds =
              wall (fun () ->
                  Annealing.schedule ~iterations ~seed ~chains:2
                    ~exchange_period:(iterations + 1) ~placement_moves:0.3
                    ~reuse system)
            in
            (name, order_only, joint, seconds))
          [
            ("d695_leon", Experiments.d695_leon ());
            ("d695_leon_torus",
             Experiments.torus_variant (Experiments.d695_leon ()));
          ])
  in
  Fmt.pr "%-18s %-12s %-12s %-10s %-10s@." "system" "order-only" "joint"
    "tile-swaps" "seconds";
  List.iter
    (fun (name, (order_only : Annealing.result), (joint : Annealing.result),
          seconds) ->
      let oo = order_only.Annealing.schedule.Schedule.makespan in
      let jm = joint.Annealing.schedule.Schedule.makespan in
      Fmt.pr "%-18s %-12d %-12d %-10d %-10.4f@." name oo jm
        joint.Annealing.placement_accepted seconds;
      let s = "anneal:placement" in
      emit_int s ("order_only:" ^ name) "cycles" oo;
      emit_int ~gate:Not_above_baseline s ("joint:" ^ name) "cycles" jm;
      emit_int ~gate:(At_least 0.0) s ("joint_gain:" ^ name) "cycles" (oo - jm);
      emit_int s ("placement_evals:" ^ name) "count"
        joint.Annealing.placement_evals;
      emit_int s ("placement_accepted:" ^ name) "count"
        joint.Annealing.placement_accepted)
    results;
  Fmt.pr
    "@.on the torus the order-only walk mostly rearranges equal path \
     lengths; moving cores across the wraparound is where the remaining \
     test time lives.@."

(* ------------------------------------------------------------------ *)
(* Tracing overhead                                                    *)

(* The observability layer promises near-zero cost when disabled: with
   no collector installed every emitter reduces to one atomic load.
   Time the same reuse sweep with tracing off, under a Spans collector
   and under a Decisions collector.  The disabled path is the one the
   figure1 [Time] row covers; the other two quantify what [--trace]
   and [--explain] cost when actually requested. *)
let tracing_overhead systems =
  section "obs: tracing overhead on the d695_leon reuse sweep";
  let system = List.assoc "d695_leon" systems in
  let access = Test_access.table system in
  let sweep () = ignore (Planner.reuse_sweep ~access system) in
  let off = best_of 3 sweep in
  let spans = best_of 3 (fun () -> ignore (Obs.Trace.with_collector sweep)) in
  let decisions =
    best_of 3 (fun () ->
        ignore (Obs.Trace.with_collector ~level:Obs.Trace.Decisions sweep))
  in
  let pct v = 100.0 *. ((v /. off) -. 1.0) in
  Fmt.pr "disabled  %.4f s@." off;
  Fmt.pr "spans     %.4f s (%+.1f%%)@." spans (pct spans);
  Fmt.pr "decisions %.4f s (%+.1f%%)@." decisions (pct decisions);
  let s = "obs:tracing_overhead" in
  emit s "disabled_seconds" "s" off;
  emit s "spans_overhead" "%" (pct spans);
  emit s "decisions_overhead" "%" (pct decisions)

(* ------------------------------------------------------------------ *)
(* Serve: concurrent clients                                           *)

let answered_ok response =
  let marker = "\"ok\": true" in
  let n = String.length response and m = String.length marker in
  let rec at i =
    i + m <= n && (String.sub response i m = marker || at (i + 1))
  in
  at 0

(* The first request index and request count of client [c] when
   [requests] are split over [clients]. *)
let slice ~requests ~clients c =
  let per_client = requests / clients and extra = requests mod clients in
  ((c * per_client) + min c extra, per_client + if c < extra then 1 else 0)

(* Worker domains of the in-process serve twins. *)
let workers = max 1 (Domain.recommended_domain_count () - 1)

(* Send request lines [line 0 .. line (requests - 1)] to [service] from
   [clients] threads, each waiting for every answer before its next
   request, then shut the service down.  Returns the wall time, the
   answers without "ok": true, and the service's stats. *)
let drive service ~requests ~clients line =
  let failures = Atomic.make 0 in
  let client c =
    let first, count = slice ~requests ~clients c in
    for i = first to first + count - 1 do
      if not (answered_ok (Serve.Service.request service (line i))) then
        Atomic.incr failures
    done
  in
  let (), seconds =
    wall (fun () ->
        List.iter Thread.join (List.init clients (Thread.create client)))
  in
  let stats = Serve.Service.stats service in
  Serve.Service.shutdown service;
  (seconds, Atomic.get failures, stats)

(* TCP stress: real sockets, one OS thread per client, every client
   holding its own live connection for the whole run and doing
   synchronous request/response rounds, so each observes true
   per-request latency.  The numbers include accept handling,
   per-connection server threads and line framing — the path an
   external tool actually hits. *)

(* Nearest-rank quantile on a sorted sample; 0 on an empty one (a
   client that got no requests when clients > requests). *)
let percentile sorted q =
  let n = Array.length sorted in
  if n = 0 then 0.0
  else
    sorted.(max 0 (min (n - 1) (int_of_float (ceil (q *. float_of_int n)) - 1)))

let tcp_load ~requests ~clients =
  section
    (Printf.sprintf "serve: TCP stress (%d requests, %d concurrent connections)"
       requests clients);
  let service = Serve.Service.create ~queue_capacity:(max 64 requests) () in
  let listener = Serve.Server.listen_tcp service ~host:"127.0.0.1" ~port:0 in
  let port =
    match Serve.Server.port listener with Some p -> p | None -> assert false
  in
  let failures = Atomic.make 0 in
  let p50 = Array.make clients 0.0 in
  let p99 = Array.make clients 0.0 in
  let client c =
    let first, count = slice ~requests ~clients c in
    let answered = ref 0 in
    (try
       let sock = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
       Fun.protect
         ~finally:(fun () -> Unix.close sock)
         (fun () ->
           Unix.connect sock (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
           let ic = Unix.in_channel_of_descr sock in
           let oc = Unix.out_channel_of_descr sock in
           let latencies = Array.make count 0.0 in
           for k = 0 to count - 1 do
             let t0 = now () in
             Printf.fprintf oc
               "{\"id\": %d, \"op\": \"plan\", \"system\": \"d695_leon\", \
                \"reuse\": %d}\n%!"
               (first + k) ((first + k) mod 7);
             if not (answered_ok (input_line ic)) then Atomic.incr failures;
             incr answered;
             latencies.(k) <- (now () -. t0) *. 1e3
           done;
           Array.sort compare latencies;
           p50.(c) <- percentile latencies 0.50;
           p99.(c) <- percentile latencies 0.99)
     with Unix.Unix_error _ | Sys_error _ | End_of_file -> ());
    (* A refused connect, a reset or an early close leaves the rest of
       this client's requests unanswered: each of them failed. *)
    ignore (Atomic.fetch_and_add failures (count - !answered))
  in
  let (), seconds =
    wall (fun () ->
        List.iter Thread.join (List.init clients (Thread.create client)))
  in
  Serve.Server.stop listener;
  Serve.Server.wait listener;
  Serve.Service.shutdown service;
  let worst a = Array.fold_left max 0.0 a in
  let failures = Atomic.get failures in
  Fmt.pr "%d requests over %d connections in %.3f s (%.1f req/s), %d failed@."
    requests clients seconds
    (float_of_int requests /. seconds)
    failures;
  Fmt.pr "per-client latency: worst p50 %.2f ms, worst p99 %.2f ms@."
    (worst p50) (worst p99);
  let s = "serve:tcp" in
  emit s "req_per_s" "req/s" (float_of_int requests /. seconds);
  emit_int ~gate:(At_most 0.0) s "failures" "count" failures;
  emit s "worst_client_p50" "ms" (worst p50);
  emit s "worst_client_p99" "ms" (worst p99)

(* Repeat traffic: many clients asking the identical question — the
   dashboard-refresh / CI-fanout shape the request path is built for.
   Run the same workload twice, with coalescing on and off, on
   otherwise identical services: the ratio is what admission-time
   coalescing buys.  The request path before coalescing served 18
   req/s here (every identical request solved from scratch); the
   current one must hold >= 10x that, and coalescing must beat its own
   uncoalesced twin >= 5x. *)
let repeat_traffic ~requests =
  let clients = 32 in
  section
    (Printf.sprintf "serve: repeat traffic (%d identical requests, %d clients)"
       requests clients);
  let line _ =
    "{\"op\": \"anneal\", \"system\": \"d695_leon\", \"reuse\": 3, \
     \"iterations\": 250}"
  in
  let run ~coalescing =
    drive
      (Serve.Service.create ~workers ~coalescing
         ~queue_capacity:(max 64 requests) ())
      ~requests ~clients line
  in
  let coalesced_seconds, cfail, cstats = run ~coalescing:true in
  let uncoalesced_seconds, ufail, _ = run ~coalescing:false in
  let coalesced =
    List.fold_left (fun acc (_, n) -> acc + n) 0 cstats.Serve.Stats.coalesced
  in
  let req_per_s = float_of_int requests /. coalesced_seconds in
  let speedup = uncoalesced_seconds /. coalesced_seconds in
  Fmt.pr "coalesced: %.3f s (%.0f req/s), %d of %d requests attached@."
    coalesced_seconds req_per_s coalesced requests;
  Fmt.pr "uncoalesced: %.3f s (%.0f req/s); speedup %.1fx@."
    uncoalesced_seconds
    (float_of_int requests /. uncoalesced_seconds)
    speedup;
  let s = "serve:repeat" in
  emit ~gate:(At_least 180.0) s "req_per_s" "req/s" req_per_s;
  emit ~gate:(At_least 5.0) s "speedup" "x" speedup;
  emit_int s "coalesced" "count" coalesced;
  emit_int ~gate:(At_most 0.0) s "failures" "count" (cfail + ufail)

(* Distinct compatible traffic: many clients asking *different*
   questions about the same SoC — the shape coalescing cannot touch
   (every request carries a unique [seed], so no two coalesce keys are
   ever equal; the solver ignores seeds for plan/validate) but the
   shared evaluation-cache registry is built for.  The workload cycles
   plan and validate over four reuse budgets of p93791_leon under the
   lookahead policy — the most expensive builtin solves — so the
   runtime is dominated by scheduler work the shared caches can
   actually elide.  Run twice on the same worker pool — with the
   shared registry on, then off — the ratio is what this layer buys,
   and must be >= 2x. *)
let shared_traffic ~requests =
  let clients = 28 in
  section
    (Printf.sprintf
       "serve: distinct compatible traffic (%d requests, %d clients)"
       requests clients);
  let line i =
    let reuse = 2 * (1 + (i mod 4)) in
    let op = if i mod 2 = 0 then "plan" else "validate" in
    Printf.sprintf
      "{\"id\": %d, \"op\": \"%s\", \"system\": \"p93791_leon\", \"policy\": \
       \"lookahead\", \"reuse\": %d, \"seed\": %d}"
      i op reuse i
  in
  let run ~shared_capacity =
    drive
      (Serve.Service.create ~workers ~shared_capacity
         ~queue_capacity:(max 64 requests) ())
      ~requests ~clients line
  in
  let shared_seconds, sfail, sstats = run ~shared_capacity:16 in
  let unshared_seconds, ufail, _ = run ~shared_capacity:0 in
  let hits = sstats.Serve.Stats.shared_cache_hits in
  let speedup = unshared_seconds /. shared_seconds in
  Fmt.pr "shared: %.3f s (%.0f req/s), %d shared cache hits@." shared_seconds
    (float_of_int requests /. shared_seconds)
    hits;
  Fmt.pr "unshared: %.3f s (%.0f req/s); speedup %.1fx@." unshared_seconds
    (float_of_int requests /. unshared_seconds)
    speedup;
  let s = "serve:shared" in
  emit s "req_per_s" "req/s" (float_of_int requests /. shared_seconds);
  emit ~gate:(At_least 2.0) s "speedup" "x" speedup;
  emit_int ~gate:(At_least 1.0) s "shared_cache_hits" "count" hits;
  emit_int ~gate:(At_most 0.0) s "failures" "count" (sfail + ufail)

(* ------------------------------------------------------------------ *)
(* fault: availability under seeded injection                          *)

(* The deterministic availability / makespan-degradation curve of the
   fault subsystem: one seeded campaign per rate, nested fault sets, so
   the injected count is monotone by construction.  Nothing gates
   availability: replan dynamics mean it need not fall as the rate
   rises (see the corpus fault_monotonicity suite), so the fault-smoke
   gate ([faults --gate]) checks the replanned schedules, the injected
   counts and that each availability figure matches its abandoned
   count, not availability's trend.  Smoke keeps it to d695. *)
let fault_availability ~smoke systems =
  section "fault: availability under seeded injection (rate sweep)";
  let names =
    if smoke then [ "d695_leon" ] else [ "d695_leon"; "p22810_leon" ]
  in
  let seed = 7 in
  List.iter
    (fun name ->
      let system = List.assoc name systems in
      let reuse = List.length system.System.processors in
      let points =
        Fault.Injector.sweep ~reuse ~seed
          ~rates:[ 0.0; 0.05; 0.1; 0.15; 0.2 ]
          system
      in
      Fmt.pr "%s (seed %d):@." name seed;
      List.iter
        (fun ((p : Fault.Injector.point), _) ->
          Fmt.pr "  %a@." Fault.Injector.pp_point p;
          let metric what =
            Printf.sprintf "%s:%s@%.2f" what name p.Fault.Injector.rate
          in
          let s = "fault:availability" in
          emit_int s (metric "injected") "count" p.Fault.Injector.injected;
          emit s (metric "availability") "ratio" p.Fault.Injector.availability;
          emit_int s (metric "makespan") "cycles" p.Fault.Injector.makespan)
        points)
    names

(* ------------------------------------------------------------------ *)
(* fault: detour table-build overhead                                  *)

(* What fault awareness costs at table-build time: the full access
   table through a detour table with a drawn fault set, against the
   plain XY build.  Best of 5 each; the ratio is the number that
   matters (the BFS tables themselves are microseconds — the wrapper
   pricing dominates both builds). *)
let detour_overhead () =
  section "fault: detour vs XY access-table build (d695_leon)";
  let system = Experiments.d695_leon () in
  let topology = system.System.topology in
  let faults =
    Fault.Injector.fault_set_of
      (List.map
         (fun (e : Fault.Injector.event) -> e.Fault.Injector.target)
         (Fault.Injector.draw ~seed:7 ~rate:0.05 ~horizon:1000 topology))
  in
  let xy = best_of 5 (fun () -> ignore (Test_access.table system)) in
  let detour =
    best_of 5 (fun () ->
        let t = Fault.Detour.table topology faults in
        ignore (Test_access.table ~route:(Fault.Detour.route_fn t) system))
  in
  Fmt.pr "xy build     %.4f s@." xy;
  Fmt.pr "detour build %.4f s (%.2fx, %d faults)@." detour (detour /. xy)
    (Fault.Detour.fault_count faults);
  let s = "fault:detour_overhead" in
  emit_int s "faults" "count" (Fault.Detour.fault_count faults);
  emit s "xy_seconds" "s" xy;
  emit s "detour_seconds" "s" detour;
  emit s "ratio" "x" (detour /. xy)

(* ------------------------------------------------------------------ *)
(* corpus:sweep — Domain-parallel testplan verification                *)

(* The verify engine must scale: running the checked-in testplan over a
   synthetic corpus on all recommended domains has to beat the same run
   on one domain by >= 2x wherever >= 4 domains are available (with
   fewer the comparison only measures spawn overhead, so the row is
   recorded, not gated), and no check may fail either way.  The number
   of checks must not depend on the number of domains. *)
let corpus_testplan_sweep ~smoke =
  section "corpus:sweep — testplan verification, 1 domain vs all";
  let path =
    List.find_opt Sys.file_exists
      [ "test/testplan.json"; "testplan.json"; "../test/testplan.json" ]
  in
  match Option.map (fun p -> (p, Corpus_lib.Testplan.load p)) path with
  | None ->
      Fmt.pr "testplan.json not found from %s — skipping@." (Sys.getcwd ())
  | Some (path, Error msg) ->
      Fmt.pr "cannot load %s: %s — skipping@." path msg
  | Some (_, Ok testplan) ->
      let count = if smoke then 48 else 144 in
      let items = Corpus_lib.Corpus.generate ~seed:11L ~count in
      let jobs = Core.Domains.clamp max_int in
      let run jobs =
        let report, seconds =
          wall (fun () ->
              Corpus_lib.Runner.run ~jobs ~clock:now ~testplan items)
        in
        let fails, checks =
          List.fold_left
            (fun (fails, checks) (p : Corpus_lib.Runner.point) ->
              ( fails + p.Corpus_lib.Runner.fail,
                checks + Corpus_lib.Runner.coverage p ))
            (0, 0) report.Corpus_lib.Runner.points
        in
        (seconds, fails, checks)
      in
      let seq_seconds, seq_fails, seq_checks = run 1 in
      let par_seconds, par_fails, par_checks = run jobs in
      let speedup = seq_seconds /. par_seconds in
      Fmt.pr "%-10s %-8s %-10s %-10s@." "domains" "systems" "checks" "seconds";
      Fmt.pr "%-10d %-8d %-10d %-10.3f@." 1 count seq_checks seq_seconds;
      Fmt.pr "%-10d %-8d %-10d %-10.3f@." jobs count par_checks par_seconds;
      Fmt.pr "speedup %.2fx on %d domain(s), %d failed checks@." speedup jobs
        (seq_fails + par_fails);
      let s = "corpus:sweep" in
      emit_int s "systems" "count" count;
      emit_int s "jobs" "count" jobs;
      emit s "sequential_seconds" "s" seq_seconds;
      emit s "parallel_seconds" "s" par_seconds;
      emit
        ~gate:(if jobs >= 4 then At_least 2.0 else Record)
        s "speedup" "x" speedup;
      emit_int ~gate:(At_least 1.0) s "checks" "count" par_checks;
      emit_int ~gate:(At_most 0.0) s "check_count_difference" "count"
        (abs (seq_checks - par_checks));
      emit_int ~gate:(At_most 0.0) s "failures" "count" (seq_fails + par_fails)

(* ------------------------------------------------------------------ *)
(* The JSON document and the gate                                      *)

let write_json path ~smoke ~panels =
  let module J = Serve.Json in
  let point (p : Planner.point) =
    J.Obj
      [
        ("reuse", J.Int p.Planner.reuse);
        ("makespan", J.Int p.Planner.makespan);
        ( "peak_power",
          J.Float (Float.round (p.Planner.peak_power *. 1e3) /. 1e3) );
        ("validated", J.Bool p.Planner.validated);
      ]
  in
  let series (s : Planner.sweep) = J.List (List.map point s.Planner.points) in
  let gate = function
    | Record -> [ ("gate", J.String "record") ]
    | At_least x -> [ ("gate", J.String "at_least"); ("bound", J.Float x) ]
    | At_most x -> [ ("gate", J.String "at_most"); ("bound", J.Float x) ]
    | Not_above_baseline -> [ ("gate", J.String "not_above_baseline") ]
    | Time tolerance ->
        [ ("gate", J.String "time"); ("bound", J.Float tolerance) ]
  in
  let row r =
    J.Obj
      ([
         ("section", J.String r.section);
         ("metric", J.String r.metric);
         ("value", J.Float r.value);
         ("unit", J.String r.unit_);
       ]
      @ gate r.gate)
  in
  let doc =
    J.Obj
      [
        ("schema", J.String "nocplan-bench/2");
        ("smoke", J.Bool smoke);
        ( "figure1",
          J.Obj
            [
              ("power_limit_pct", J.Float Experiments.binding_power_pct);
              ( "panels",
                J.List
                  (List.map
                     (fun (name, unconstrained, constrained) ->
                       J.Obj
                         [
                           ("system", J.String name);
                           ("unconstrained", series unconstrained);
                           ("power_limited", series constrained);
                         ])
                     panels) );
            ] );
        ("rows", J.List (List.rev_map row !rows));
      ]
  in
  Out_channel.with_open_text path (fun oc ->
      output_string oc (J.to_string doc);
      output_char oc '\n');
  Fmt.pr "@.wrote %s (%d rows)@." path (List.length !rows)

(* Calibration loops slower or faster than the baseline's by more than
   this factor mean another host: its [Time] rows are not gated. *)
let host_tolerance = 1.5

let run_gate baseline_path =
  let module J = Serve.Json in
  let contents =
    In_channel.with_open_bin baseline_path In_channel.input_all
  in
  match J.parse contents with
  | Error e ->
      Fmt.epr "gate: cannot parse %s: %s@." baseline_path e;
      false
  | Ok doc ->
      let baseline =
        match J.member "rows" doc with
        | Some (J.List rs) ->
            List.filter_map
              (fun r ->
                match
                  (J.str_field "section" r, J.str_field "metric" r,
                   J.float_field "value" r, J.str_field "gate" r)
                with
                | Some s, Some m, Some v, Some g -> Some ((s, m), (v, g))
                | _ -> None)
              rs
        | Some _ | None -> []
      in
      let this_run = List.rev !rows in
      let find key =
        List.find_opt (fun r -> (r.section, r.metric) = key) this_run
      in
      let failures = ref [] in
      let num v =
        if Float.is_integer v then Printf.sprintf "%.0f" v
        else Printf.sprintf "%.4g" v
      in
      let line name value verdict =
        Fmt.pr "gate: %-44s %12s  %s@." name (num value) verdict
      in
      let check name value ok bound =
        let message = Printf.sprintf "%s %s (%s)" name (num value) bound in
        if not ok then failures := message :: !failures;
        line name value (bound ^ if ok then "  ok" else "  FAIL")
      in
      let same_host =
        match
          (find ("host", "calibration_ms"),
           List.assoc_opt ("host", "calibration_ms") baseline)
        with
        | Some r, Some (base, _) ->
            let ratio = r.value /. base in
            Fmt.pr "gate: host calibration %.2f ms, baseline %.2f ms (%.2fx)@."
              r.value base ratio;
            ratio <= host_tolerance && ratio >= 1.0 /. host_tolerance
        | _ -> false
      in
      List.iter
        (fun r ->
          let name = r.section ^ " " ^ r.metric in
          let base =
            Option.map fst (List.assoc_opt (r.section, r.metric) baseline)
          in
          match (r.gate, base) with
          | Record, _ -> ()
          | At_least x, _ ->
              check name r.value (r.value >= x) (Printf.sprintf ">= %g" x)
          | At_most x, _ ->
              check name r.value (r.value <= x) (Printf.sprintf "<= %g" x)
          | Not_above_baseline, Some b ->
              check name r.value (r.value <= b) ("<= baseline " ^ num b)
          | Time tolerance, Some b when same_host ->
              let bound = b *. (1.0 +. tolerance) in
              check name r.value (r.value <= bound)
                (Printf.sprintf "<= %.4g (baseline %.4g + %.0f%%)" bound b
                   (100.0 *. tolerance))
          | Time _, Some _ -> line name r.value "other host, not gated"
          | (Not_above_baseline | Time _), None ->
              check name r.value false "baseline lacks this row")
        this_run;
      (* A gated baseline row this run did not produce: its section did
         not run. *)
      List.iter
        (fun ((s, m), (_, g)) ->
          if g <> "record" && find (s, m) = None then
            check (s ^ " " ^ m) nan false "missing from this run")
        baseline;
      if baseline = [] then failures := "baseline has no rows" :: !failures;
      match !failures with
      | [] ->
          Fmt.pr "gate: PASS vs %s@." baseline_path;
          true
      | fs ->
          Fmt.epr "@.gate: FAIL vs %s@." baseline_path;
          List.iter (fun m -> Fmt.epr "  - %s@." m) (List.rev fs);
          false

let () =
  let smoke = ref false in
  let json_path = ref "BENCH_nocplan.json" in
  let gate_path = ref None in
  Arg.parse
    [
      ( "--smoke",
        Arg.Set smoke,
        " quick run: only the sections with gated rows, at CI size" );
      ( "--json",
        Arg.Set_string json_path,
        "PATH write the rows and the Figure-1 series there (default \
         BENCH_nocplan.json)" );
      ( "--gate",
        Arg.String (fun p -> gate_path := Some p),
        "PATH check this run's rows against that recorded document; exit 1 \
         if any check fails" );
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "bench [--smoke] [--json PATH] [--gate BASELINE]";
  Fmt.pr "nocplan reproduction harness%s@."
    (if !smoke then " (smoke)" else "");
  let systems =
    [
      ("d695_leon", Experiments.d695_leon ());
      ("p22810_leon", Experiments.p22810_leon ());
      ("p93791_leon", Experiments.p93791_leon ());
    ]
  in
  (* The [Time] rows come first in both modes, so a smoke run times
     them in the same process state as the full run that recorded the
     baseline. *)
  let panels = figure1 systems in
  optimality_gap ();
  annealing ();
  placement_annealing ();
  if not !smoke then begin
    figure1_tables panels;
    timed "A2:noc_characterization" noc_characterization;
    timed "A3:processor_characterization" processor_characterization;
    timed "A1:greedy_vs_lookahead" greedy_vs_lookahead;
    timed "A4:power_sensitivity" power_sensitivity;
    timed "A5:io_port_sensitivity" io_port_sensitivity;
    timed "A6:placement_sensitivity" placement_sensitivity;
    timed "A8:model_validation" model_validation;
    timed "A9:preemption" preemption;
    timed "A10:flit_width_sweep" flit_width_sweep;
    timed "A11:fault_sweep" fault_sweep;
    timed "A13:bus_vs_noc" bus_vs_noc;
    timed "A14:mesh_vs_torus" mesh_vs_torus;
    timed "A15:corpus_sweep" corpus_sweep;
    timed "A16:replanning" replanning;
    timed "A17:compression_measurement" compression_measurement;
    timed "A18:energy_tradeoff" energy_tradeoff;
    timed "A19:coverage_curve" coverage_curve
  end;
  timed "backend:race" (fun () -> backend_race systems);
  timed "obs:tracing_overhead" (fun () -> tracing_overhead systems);
  timed "serve:repeat" (fun () ->
      repeat_traffic ~requests:(if !smoke then 120 else 240));
  timed "serve:shared" (fun () ->
      shared_traffic ~requests:(if !smoke then 168 else 336));
  timed "serve:tcp" (fun () -> tcp_load ~requests:200 ~clients:100);
  timed "fault:availability" (fun () ->
      fault_availability ~smoke:!smoke systems);
  timed "fault:detour_overhead" detour_overhead;
  timed "corpus:sweep" (fun () -> corpus_testplan_sweep ~smoke:!smoke);
  emit "host" "calibration_ms" "ms" (1e3 *. median !calibration);
  write_json !json_path ~smoke:!smoke ~panels;
  match !gate_path with
  | Some baseline_path when not (run_gate baseline_path) -> exit 1
  | Some _ | None -> ()
