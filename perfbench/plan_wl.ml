(* plan-paper: the paper's planning flow over the six ITC'02 builtin
   systems plus a seeded corpus slice.  Per system: one access table,
   an unconstrained and a 25%-power reuse sweep sharing it, a backend
   race and a fixed-seed annealing run.  The slice is small so that the
   builtins, the same for every seed, carry most of the time. *)

open Measure
module Core = Nocplan_core
module Corpus = Nocplan_corpus.Corpus

let power_limit_pct = 25.0
let corpus_slice = 4
let anneal_iterations = 100
let anneal_seed = 0x5AL

(* The unconstrained Figure-1 series of the [*_leon] panels recorded in
   BENCH_nocplan.json, reuse 0 upwards: what the sweeps must reproduce. *)
let figure1_path = "BENCH_nocplan.json"

let figure1 () =
  let module Json = Nocplan_serve.Json in
  let fail msg = failwith (figure1_path ^ ": " ^ msg) in
  let doc =
    match Json.parse (In_channel.with_open_bin figure1_path In_channel.input_all) with
    | Ok j -> j
    | Error msg -> fail msg
  in
  let panels =
    match Option.bind (Json.member "figure1" doc) (Json.member "panels") with
    | Some (Json.List panels) -> panels
    | _ -> fail "no figure1 panels"
  in
  List.filter_map
    (fun panel ->
      match (Json.str_field "system" panel, Json.member "unconstrained" panel) with
      | Some system, Some (Json.List points)
        when String.ends_with ~suffix:"_leon" system ->
          Some
            ( system,
              List.map
                (fun p ->
                  match Json.int_field "makespan" p with
                  | Some m -> m
                  | None -> fail (system ^ ": point without a makespan"))
                points )
      | _ -> None)
    panels

type target = {
  name : string;
  builtin : bool;
  system : Core.System.t;
  config : Core.Scheduler.config;  (* what the race plans *)
  figure1 : int list option;  (* the unconstrained series it must give *)
}

let full_reuse system = List.length system.Core.System.processors

let targets ~seed =
  let figure1 = figure1 () in
  let builtins =
    List.map
      (fun (name, build) ->
        let system = build () in
        let expected = List.assoc_opt name figure1 in
        if expected = None && String.ends_with ~suffix:"_leon" name then
          failwith (figure1_path ^ ": no figure1 panel for " ^ name);
        {
          name;
          builtin = true;
          system;
          config = Core.Scheduler.config ~reuse:(full_reuse system) ();
          figure1 = expected;
        })
      Core.Experiments.builders
  in
  let slice =
    List.map
      (fun (item : Corpus.item) ->
        {
          name = item.Corpus.name;
          builtin = false;
          system = item.Corpus.system;
          config = Corpus.config item;
          figure1 = None;
        })
      (Corpus.generate ~seed:(Inputs.corpus_seed seed) ~count:corpus_slice)
  in
  builtins @ slice

(* What one pass of the flow over one system measured and found. *)
type flow = {
  latency_ms : float;
  words : float;
  sweep_ms : float;
  race_ms : float;
  anneal_ms : float;
  anneal_evaluations : int;
  binpack_won : bool;
  power_skipped : bool;
  reduction : float option;  (* mean over the series run, builtins only *)
  anneal_reduction : float option;
  problems : string list;
}

let reduction (s : Core.Planner.sweep) =
  Core.Planner.reduction_pct
    ~baseline:(Core.Planner.baseline_point s).Core.Planner.makespan
    (Core.Planner.best_point s).Core.Planner.makespan

let flow t =
  let problems = ref [] in
  let problem fmt = Printf.ksprintf (fun s -> problems := (t.name ^ ": " ^ s) :: !problems) fmt in
  let words0 = alloc_words () in
  let t0 = now () in
  let access = Core.Test_access.table t.system in
  let (unconstrained, limited), sweep_s =
    timed (fun () ->
        let u = Core.Planner.reuse_sweep ~access t.system in
        let l =
          match
            Core.Planner.reuse_sweep ~power_limit_pct ~access t.system
          with
          | s -> Some s
          | exception Core.Scheduler.Unschedulable _ -> None
        in
        (u, l))
  in
  let race, race_s =
    timed (fun () -> Core.Backend.race ~clock:now ~access t.system t.config)
  in
  let annealed, anneal_s =
    timed (fun () ->
        Core.Annealing.schedule ~iterations:anneal_iterations ~seed:anneal_seed
          ~access ~reuse:(full_reuse t.system) t.system)
  in
  let latency = now () -. t0 in
  let words = alloc_words () -. words0 in
  (* Output checks. *)
  List.iter
    (fun (s : Core.Planner.sweep) ->
      List.iter
        (fun (p : Core.Planner.point) ->
          if not p.Core.Planner.validated then
            problem "sweep point reuse=%d not validated" p.Core.Planner.reuse)
        s.Core.Planner.points)
    (unconstrained :: Option.to_list limited);
  let makespan_of name =
    List.find_map
      (fun (a : Core.Backend.attempt) ->
        match a.Core.Backend.outcome with
        | Ok s when a.Core.Backend.backend = name && a.Core.Backend.valid ->
            Some s.Core.Schedule.makespan
        | _ -> None)
      race.Core.Backend.attempts
  in
  let race_makespan = race.Core.Backend.schedule.Core.Schedule.makespan in
  (match makespan_of "greedy" with
  | Some g when race_makespan > g -> problem "race %d worse than greedy %d" race_makespan g
  | Some _ -> ()
  | None -> problem "greedy produced no valid schedule in the race");
  let binpack_won =
    match (makespan_of "binpack", makespan_of "greedy") with
    | Some b, Some g -> b < g
    | _ -> false
  in
  (match t.figure1 with
  | Some expected ->
      let got =
        List.map (fun (p : Core.Planner.point) -> p.Core.Planner.makespan)
          unconstrained.Core.Planner.points
      in
      if got <> expected then
        problem "unconstrained series %s differs from figure1 %s"
          (String.concat " " (List.map string_of_int got))
          (String.concat " " (List.map string_of_int expected))
  | None -> ());
  let annealed_makespan = annealed.Core.Annealing.schedule.Core.Schedule.makespan in
  let baseline = (Core.Planner.baseline_point unconstrained).Core.Planner.makespan in
  {
    latency_ms = latency *. 1e3;
    words;
    sweep_ms = sweep_s *. 1e3;
    race_ms = race_s *. 1e3;
    anneal_ms = anneal_s *. 1e3;
    anneal_evaluations = annealed.Core.Annealing.evaluations;
    binpack_won;
    power_skipped = Option.is_none limited;
    reduction =
      (if t.builtin then
         Some (mean (List.map reduction (unconstrained :: Option.to_list limited)))
       else None);
    anneal_reduction =
      (if t.builtin then
         Some (Core.Planner.reduction_pct ~baseline annealed_makespan)
       else None);
    problems = !problems;
  }

(* One pass of the flow over every target, in order. *)
let pass targets = List.map flow targets

let run ~seed ~seconds ~trace =
  let setups =
    List.init 3 (fun _ ->
        timed (fun () ->
            let targets = targets ~seed in
            (* Warm-up: one untimed pass fills lazy state. *)
            ignore (pass targets);
            targets))
  in
  let setup_s = median (List.map snd setups) in
  let targets = fst (List.hd setups) in
  (* Passes until [seconds] have gone, at least one.  A traced run
     follows each pass with a traced one, so both see the same state of
     the host. *)
  let spans = Spans.create () in
  let flows = ref [] and walls = ref [] and traced = ref [] and traced_walls = ref [] in
  let cal = Calibration.create () in
  let t0 = now () in
  let rec loop () =
    let fl, wall = timed (fun () -> pass targets) in
    Calibration.tick cal;
    flows := List.rev_append fl !flows;
    walls := wall :: !walls;
    if trace then begin
      let fl, wall = timed (fun () -> Spans.collect spans (fun () -> pass targets)) in
      traced := List.rev_append fl !traced;
      traced_walls := wall :: !traced_walls
    end;
    if now () -. t0 < seconds then loop ()
  in
  loop ();
  let flows = List.rev !flows in
  let n = List.length flows in
  let failed = List.length (List.filter (fun f -> f.problems <> []) flows) in
  let problems = List.concat_map (fun f -> f.problems) (flows @ !traced) in
  (* Each system's median flow time over the passes, robust to bursts
     of load from outside the benchmark; the latency quantiles are over
     systems. *)
  let lat =
    let k = List.length targets in
    List.init k (fun i ->
        median
          (List.filteri (fun j _ -> j mod k = i) (List.map (fun f -> f.latency_ms) flows)))
  in
  (* Every pass does the same work; see [Measure.steady]. *)
  let ms_per_system =
    Calibration.scale cal (steady !walls *. 1e3 /. float_of_int (List.length targets))
  in
  let per_sys f = per (sum (List.map f flows)) n in
  let traced_layers =
    if not trace then []
    else
      Spans.core_layers spans ~systems:(List.length !traced)
      @ [
          ( "obs.trace_overhead_pct",
            100.0 *. ((steady !traced_walls /. steady !walls) -. 1.0) );
        ]
  in
  let builtin_mean f = mean (List.filter_map f flows) in
  {
    correct = problems = [];
    attempted = n;
    failed;
    problems;
    end_to_end =
      [
        ("setup_s", Calibration.scale cal setup_s);
        ("success_rate", 1.0 -. ratio failed n);
        ("ms_per_system", ms_per_system);
      ];
    layers =
      [
        ("latency_p50_ms", quantile 0.5 lat);
        ("latency_p90_ms", quantile 0.9 lat);
        ("host.calibration_ms", Calibration.ms cal);
        ("core.alloc_words_per_system", per_sys (fun f -> f.words));
        ("core.reuse_sweep_ms", per_sys (fun f -> f.sweep_ms));
        ("core.anneal_ms", per_sys (fun f -> f.anneal_ms));
        ("core.anneal_evaluations", per_sys (fun f -> float_of_int f.anneal_evaluations));
        ("core.backend_race_ms", per_sys (fun f -> f.race_ms));
        ("core.race_binpack_win_rate",
          ratio (List.length (List.filter (fun f -> f.binpack_won) flows)) n);
        ("core.power_sweeps_skipped",
          ratio (List.length (List.filter (fun f -> f.power_skipped) flows)) n);
        ("core.reduction_pct", builtin_mean (fun f -> f.reduction));
        ("core.anneal_reduction_pct", builtin_mean (fun f -> f.anneal_reduction));
      ]
      @ traced_layers;
  }
