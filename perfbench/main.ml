(* The nocplan benchmark.

     main.exe --workload W --seed N --seconds S --trace 0|1 --nocplan EXE

   runs one workload and prints, as its last line, one JSON object:
   whether every output check passed, the operations attempted and
   failed, and every end-to-end metric (--trace 0) or every per-layer
   metric (--trace 1), each with its unit.  Exits 1 when a check
   failed.  Run it through run.py, which builds it first. *)

open Perfbench

let end_to_end =
  [
    ("setup_s", "s");
    ("success_rate", "ratio");
    ("ms_per_system", "ms");
  ]

(* Every per-layer metric, in report order.  A layer a workload does
   not exercise reads 0. *)
let per_layer =
  [
    ("latency_p50_ms", "ms");
    ("latency_p90_ms", "ms");
    ("host.calibration_ms", "ms");
    ("corpus.item_ms", "ms");
  ]
  @ List.concat_map
      (fun (s : Nocplan_corpus.Suites.suite) ->
        [
          ("suite." ^ s.Nocplan_corpus.Suites.name ^ "_ms", "ms");
          ("suite." ^ s.Nocplan_corpus.Suites.name ^ "_alloc_words", "words");
        ])
      Nocplan_corpus.Suites.all
  @ [
      ("core.alloc_words_per_system", "words");
      ("core.access_table_builds", "count");
      ("core.access_table_ms", "ms");
      ("fault.replans", "count");
      ("fault.replan_ms", "ms");
      ("fault.detour_ms", "ms");
      ("core.scheduler_runs", "count");
      ("core.scheduler_run_ms", "ms");
      ("core.reuse_sweep_ms", "ms");
      ("core.anneal_ms", "ms");
      ("core.anneal_evaluations", "count");
      ("core.eval_hit_ratio", "ratio");
      ("core.backend_race_ms", "ms");
      ("core.backend_greedy_ms", "ms");
      ("core.backend_binpack_ms", "ms");
      ("core.race_binpack_win_rate", "ratio");
      ("core.power_sweeps_skipped", "ratio");
      ("core.reduction_pct", "%");
      ("core.anneal_reduction_pct", "%");
      ("serve.parse_us", "us");
      ("serve.build_ms", "ms");
      ("serve.queue_wait_ms", "ms");
      ("serve.table_ms", "ms");
    ]
  @ List.map
      (fun op -> ("serve.solve_ms." ^ op, "ms"))
      [ "plan"; "validate"; "sweep"; "anneal"; "replan"; "preempt" ]
  @ [
      ("serve.outside_ms", "ms");
      ("serve.table_cache_hit_ratio", "ratio");
      ("serve.shared_cache_hit_ratio", "ratio");
      ("serve.warm_hit_ratio", "ratio");
      ("serve.coalesced_ratio", "ratio");
      ("serve.batched_ratio", "ratio");
      ("serve.rejected", "count");
      ("serve.anneal_history_mismatch", "count");
      ("gen.late_ms", "ms");
      ("obs.trace_overhead_pct", "%");
    ]

let workloads = [ "verify-corpus"; "plan-paper"; "serve-shared"; "serve-cold" ]

let usage () =
  prerr_endline
    "usage: main.exe --workload (verify-corpus|plan-paper|serve-shared|serve-cold) \
     --seed N --seconds S --trace 0|1 --nocplan EXE";
  exit 2

(* Every flag is required; run.py holds the defaults. *)
let () =
  let workload = ref None and seed = ref None and seconds = ref None in
  let trace = ref None and nocplan = ref None in
  let rec parse = function
    | [] -> ()
    | "--workload" :: w :: rest -> workload := Some w; parse rest
    | "--seed" :: n :: rest -> seed := Some (int_of_string n); parse rest
    | "--seconds" :: s :: rest -> seconds := Some (float_of_string s); parse rest
    | "--trace" :: ("0" | "1" as t) :: rest -> trace := Some (t = "1"); parse rest
    | "--nocplan" :: p :: rest -> nocplan := Some p; parse rest
    | _ -> usage ()
  in
  (try parse (List.tl (Array.to_list Sys.argv)) with Failure _ -> usage ());
  let workload, seed, seconds, trace, nocplan =
    match (!workload, !seed, !seconds, !trace, !nocplan) with
    | Some w, Some n, Some s, Some t, Some p when List.mem w workloads -> (w, n, s, t, p)
    | _ -> usage ()
  in
  let r =
    match workload with
    | "verify-corpus" -> Verify_wl.run ~seed ~seconds ~trace
    | "plan-paper" -> Plan_wl.run ~seed ~seconds ~trace
    | "serve-shared" -> Serve_wl.run ~nocplan Serve_wl.shared ~seed ~seconds ~trace
    | _ -> Serve_wl.run ~nocplan Serve_wl.cold ~seed ~seconds ~trace
  in
  List.iteri
    (fun i p -> if i < 20 then prerr_endline ("check failed: " ^ p))
    r.Measure.problems;
  let spec, values =
    if trace then (per_layer, r.Measure.layers) else (end_to_end, r.Measure.end_to_end)
  in
  List.iter
    (fun (name, _) ->
      if not (List.mem_assoc name spec) then
        failwith ("metric " ^ name ^ " is not in the metric list"))
    values;
  let metric (name, unit) =
    let v = Option.value ~default:0.0 (List.assoc_opt name values) in
    let v = if Float.is_finite v then v else 0.0 in
    Printf.sprintf "%S: {\"value\": %.17g, \"unit\": %S}" name v unit
  in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n"
    r.Measure.correct r.Measure.attempted r.Measure.failed
    (String.concat ", " (List.map metric spec));
  exit (if r.Measure.correct then 0 else 1)
