(* End-to-end checks that the paper's qualitative results reproduce.
   These are the repository's "does the science come out" tests; the
   quantitative series themselves are regenerated by bench/main.exe
   and recorded in EXPERIMENTS.md. *)

module Core = Nocplan_core
module Planner = Core.Planner
module Report = Core.Report
module Scheduler = Core.Scheduler
module System = Core.System
module Soc = Nocplan_itc02.Soc

let d695 = lazy (Core.Experiments.d695_leon ())
let p22810 = lazy (Core.Experiments.p22810_leon ())
let p93791 = lazy (Core.Experiments.p93791_leon ())

let sweep ?policy ?power_limit_pct sys =
  Planner.reuse_sweep ?policy ?power_limit_pct sys

let test_system_shapes () =
  let check name sys ~modules ~procs ~w ~h =
    Alcotest.(check int) (name ^ " modules") modules
      (Soc.module_count sys.System.soc);
    Alcotest.(check int) (name ^ " processors") procs
      (List.length sys.System.processors);
    Alcotest.(check int) (name ^ " width") w
      sys.System.topology.Nocplan_noc.Topology.width;
    Alcotest.(check int) (name ^ " height") h
      sys.System.topology.Nocplan_noc.Topology.height
  in
  (* "The total number of cores of the new systems is 16, 36, and 40
     ... the network dimensions ... 4x4, 5x6 and 5x5." *)
  check "d695_leon" (Lazy.force d695) ~modules:16 ~procs:6 ~w:4 ~h:4;
  check "p22810_leon" (Lazy.force p22810) ~modules:36 ~procs:8 ~w:5 ~h:6;
  check "p93791_leon" (Lazy.force p93791) ~modules:40 ~procs:8 ~w:5 ~h:5

let test_every_sweep_point_validates () =
  List.iter
    (fun sys ->
      let s = sweep sys in
      List.iter
        (fun (p : Planner.point) ->
          Alcotest.(check bool)
            (Printf.sprintf "%s reuse %d" s.Planner.system_name p.Planner.reuse)
            true p.Planner.validated)
        s.Planner.points)
    [ Lazy.force d695; Lazy.force p22810; Lazy.force p93791 ]

let test_reuse_reduces_test_time () =
  (* The headline claim: processor reuse reduces test time, with
     double-digit percentage gains. *)
  List.iter
    (fun (sys, at_least) ->
      let h = Report.headline (sweep sys) in
      Alcotest.(check bool)
        (Printf.sprintf "%s gains >= %.0f%% (got %.1f%%)" h.Report.system_name
           at_least h.Report.reduction_pct)
        true
        (h.Report.reduction_pct >= at_least))
    [ (Lazy.force d695, 20.0); (Lazy.force p22810, 30.0); (Lazy.force p93791, 30.0) ]

let test_larger_systems_gain_more () =
  (* "even smaller systems like d695_leon can take advantage ... For
     larger systems such as p93791_leon, the gain ... can be as high
     as 44%": the bigger benchmark gains at least as much. *)
  let gain sys = (Report.headline (sweep sys)).Report.reduction_pct in
  Alcotest.(check bool) "p93791 gains more than d695" true
    (gain (Lazy.force p93791) > gain (Lazy.force d695))

let test_power_constraint_dampens_but_preserves_gain () =
  (* "imposing power constraints the test reduction reaches up to 37%"
     (vs 44% unconstrained): constrained gains stay positive but below
     or near the unconstrained ones. *)
  let sys = Lazy.force p93791 in
  let free = Report.headline (sweep sys) in
  let limited =
    Report.headline
      (sweep ~power_limit_pct:Core.Experiments.binding_power_pct sys)
  in
  Alcotest.(check bool) "limited gain positive" true
    (limited.Report.reduction_pct > 10.0);
  Alcotest.(check bool) "limited <= unconstrained" true
    (limited.Report.reduction_pct <= free.Report.reduction_pct +. 1e-9);
  (* And the constrained peak respects the limit. *)
  let limit =
    System.power_limit_of_pct sys ~pct:Core.Experiments.binding_power_pct
  in
  let s = sweep ~power_limit_pct:Core.Experiments.binding_power_pct sys in
  List.iter
    (fun (p : Planner.point) ->
      Alcotest.(check bool) "peak under limit" true
        (p.Planner.peak_power <= limit +. 1e-6))
    s.Planner.points

let monotonicity_violations (s : Planner.sweep) =
  let rec go = function
    | (a : Planner.point) :: (b :: _ as rest) ->
        (if b.Planner.makespan > a.Planner.makespan then 1 else 0) + go rest
    | [ _ ] | [] -> 0
  in
  go s.Planner.points

let test_greedy_anomaly_on_p22810 () =
  (* "For the p22810_leon system, we get some test time reduction, but
     it is not regular because of the greedy behavior": the greedy
     series is non-monotone somewhere across the three systems, and
     p22810's irregularity is visible. *)
  let total =
    List.fold_left
      (fun acc sys -> acc + monotonicity_violations (sweep sys))
      0
      [ Lazy.force d695; Lazy.force p22810; Lazy.force p93791 ]
  in
  Alcotest.(check bool) "greedy shows irregularity" true (total >= 1)

let test_lookahead_no_worse_at_best () =
  let sys = Lazy.force p22810 in
  let g = Report.headline (sweep sys) in
  let l = Report.headline (sweep ~policy:Scheduler.Lookahead sys) in
  Alcotest.(check bool) "lookahead best <= greedy best * 1.05" true
    (float_of_int l.Report.best_makespan
    <= 1.05 *. float_of_int g.Report.best_makespan)

let test_mixed_systems_schedule () =
  let sys = Core.Experiments.d695_mixed () in
  let s = sweep sys in
  List.iter
    (fun (p : Planner.point) ->
      Alcotest.(check bool) "validated" true p.Planner.validated)
    s.Planner.points

(* The committed bench artefact records the Figure-1 series (perfbench
   checks its sweeps against them too): the unconstrained series of
   every [*_leon] panel must still be what [Planner.reuse_sweep]
   gives. *)
let test_committed_figure1_panels () =
  let module Json = Nocplan_serve.Json in
  let path = "../BENCH_nocplan.json" in
  let doc =
    match Json.parse (In_channel.with_open_bin path In_channel.input_all)
    with
    | Ok doc -> doc
    | Error e -> Alcotest.failf "%s: %s" path e
  in
  let panels =
    match Option.bind (Json.member "figure1" doc) (Json.member "panels") with
    | Some (Json.List panels) -> panels
    | _ -> Alcotest.failf "%s: no figure1 panels" path
  in
  List.iter
    (fun (name, system) ->
      let recorded =
        match
          List.find_opt
            (fun p -> Json.str_field "system" p = Some name)
            panels
        with
        | Some panel -> (
            match Json.member "unconstrained" panel with
            | Some (Json.List points) ->
                List.map
                  (fun p ->
                    (Json.int_field "reuse" p, Json.int_field "makespan" p))
                  points
            | _ ->
                Alcotest.failf "%s: %s has no unconstrained series" path name)
        | None -> Alcotest.failf "%s: no %s panel" path name
      in
      let fresh =
        List.map
          (fun (p : Planner.point) ->
            (Some p.Planner.reuse, Some p.Planner.makespan))
          (sweep (Lazy.force system)).Planner.points
      in
      Alcotest.(check (list (pair (option int) (option int))))
        name fresh recorded)
    [ ("d695_leon", d695); ("p22810_leon", p22810); ("p93791_leon", p93791) ]

let suite =
  [
    Alcotest.test_case "system shapes match the paper" `Quick
      test_system_shapes;
    Alcotest.test_case "all sweep points validate" `Slow
      test_every_sweep_point_validates;
    Alcotest.test_case "reuse reduces test time" `Slow
      test_reuse_reduces_test_time;
    Alcotest.test_case "larger systems gain more" `Slow
      test_larger_systems_gain_more;
    Alcotest.test_case "power constraint dampens" `Slow
      test_power_constraint_dampens_but_preserves_gain;
    Alcotest.test_case "greedy anomaly" `Slow test_greedy_anomaly_on_p22810;
    Alcotest.test_case "lookahead competitive" `Slow
      test_lookahead_no_worse_at_best;
    Alcotest.test_case "mixed processor systems" `Slow
      test_mixed_systems_schedule;
    Alcotest.test_case "committed figure1 panels reproduce" `Slow
      test_committed_figure1_panels;
  ]
