(* Fault-aware planning: tests must route around failed NoC channels. *)

open Util
module Core = Nocplan_core
module Test_access = Core.Test_access
module Resource = Core.Resource
module System = Core.System
module Schedule = Core.Schedule
module Scheduler = Core.Scheduler
module Link = Nocplan_noc.Link
module Coord = Nocplan_noc.Coord
module Xy = Nocplan_noc.Xy_routing
module Proc = Nocplan_proc

let c x y = Coord.make ~x ~y
let mesh3 = Nocplan_noc.Topology.make ~width:3 ~height:3

let test_route_feasible_basics () =
  let sys = small_system () in
  let ein = Resource.External_in (List.hd sys.System.io_inputs) in
  let eout = Resource.External_out (List.hd sys.System.io_outputs) in
  (* No failures: everything routes. *)
  List.iter
    (fun id ->
      Alcotest.(check bool) "feasible" true
        (Test_access.route_feasible sys ~module_id:id ~source:ein ~sink:eout))
    (System.module_ids sys)

let test_failed_link_blocks_path () =
  let sys = small_system () in
  let ein = Resource.External_in (List.hd sys.System.io_inputs) in
  let eout = Resource.External_out (List.hd sys.System.io_outputs) in
  (* Fail a link on the stimulus path of module 2 and check the pair
     becomes infeasible for exactly the modules whose path uses it. *)
  let cut = System.coord_of_module sys 2 in
  let stim_links = Xy.links mesh3 ~src:(c 0 0) ~dst:cut in
  let victim =
    List.find (function Link.Channel _ -> true | _ -> false) stim_links
  in
  let broken = System.with_failed_links sys [ victim ] in
  Alcotest.(check bool) "module 2 blocked" false
    (Test_access.route_feasible broken ~module_id:2 ~source:ein ~sink:eout);
  (* Modules whose paths avoid the victim stay feasible. *)
  let unaffected =
    List.filter
      (fun id ->
        let cut = System.coord_of_module broken id in
        not
          (List.exists (Link.equal victim)
             (Xy.links mesh3 ~src:(c 0 0) ~dst:cut
             @ Xy.links mesh3 ~src:cut ~dst:(c 2 2))))
      (System.module_ids broken)
  in
  List.iter
    (fun id ->
      Alcotest.(check bool)
        (Printf.sprintf "module %d unaffected" id)
        true
        (Test_access.route_feasible broken ~module_id:id ~source:ein
           ~sink:eout))
    unaffected

let test_scheduler_routes_around_fault () =
  (* Break the channel (1,0)->(2,0): it carries the external response
     path of the west cores and the stimulus path to (2,0).  The Leon
     at (1,1) remains reachable and becomes the detour source/sink, so
     a complete plan still exists — the scheduler must find it. *)
  let sys = small_system () in
  let victim = Link.channel (c 1 0) (c 2 0) in
  let broken = System.with_failed_links sys [ victim ] in
  let sched = Scheduler.run broken (Scheduler.config ~reuse:1 ()) in
  (match
     Schedule.validate broken ~application:Proc.Processor.Bist
       ~power_limit:None ~reuse:1 sched
   with
  | Ok () -> ()
  | Error vs ->
      Alcotest.failf "invalid: %a" (Fmt.list Schedule.pp_violation) vs);
  (* And the faulty link is really avoided. *)
  List.iter
    (fun (e : Schedule.entry) ->
      Alcotest.(check bool) "victim link unused" false
        (List.exists (Link.equal victim) e.Schedule.links))
    sched.Schedule.entries

let test_unschedulable_when_isolated () =
  (* Fail every channel around the single external input port with no
     processors: nothing can be tested. *)
  let sys = small_system ~processors:[] () in
  let isolating =
    [ Link.channel (c 0 0) (c 1 0); Link.channel (c 0 0) (c 0 1) ]
  in
  let broken = System.with_failed_links sys isolating in
  match Scheduler.run broken (Scheduler.config ~reuse:0 ()) with
  | exception Scheduler.Unschedulable _ -> ()
  | _ ->
      (* Cores co-located with the port remain testable; only fail if
         every module could still be tested, which would mean the
         fault model did nothing. *)
      let blocked =
        List.filter
          (fun id ->
            not
              (Test_access.route_feasible broken ~module_id:id
                 ~source:(Resource.External_in (c 0 0))
                 ~sink:(Resource.External_out (c 2 2))))
          (System.module_ids broken)
      in
      Alcotest.(check bool) "some module is blocked" true (blocked <> [])

let test_validator_catches_failed_link_use () =
  let sys = small_system () in
  let sched = Scheduler.run sys (Scheduler.config ~reuse:1 ()) in
  (* Declare a link faulty after the fact: the old schedule must now
     fail validation. *)
  let used_link =
    List.concat_map (fun (e : Schedule.entry) -> e.Schedule.links)
      sched.Schedule.entries
    |> List.find (function Link.Channel _ -> true | _ -> false)
  in
  let broken = System.with_failed_links sys [ used_link ] in
  match
    Schedule.validate broken ~application:Proc.Processor.Bist
      ~power_limit:None ~reuse:1 sched
  with
  | Ok () -> Alcotest.fail "failed-link use not caught"
  | Error vs ->
      Alcotest.(check bool) "Uses_failed_link reported" true
        (List.exists
           (function Schedule.Uses_failed_link _ -> true | _ -> false)
           vs)

let test_with_failed_links_accumulates () =
  let sys = small_system () in
  let l1 = Link.channel (c 0 0) (c 1 0) in
  let l2 = Link.channel (c 1 0) (c 2 0) in
  let broken = System.with_failed_links (System.with_failed_links sys [ l1 ]) [ l2 ] in
  Alcotest.(check int) "two failed links" 2
    (Link.Set.cardinal broken.System.failed_links)

let prop_fault_free_systems_unaffected =
  qcheck ~count:20 "no failed links: feasibility = pair validity" system_gen
    (fun sys ->
      let endpoints =
        Resource.all_endpoints sys ~reuse:(List.length sys.System.processors)
      in
      List.for_all
        (fun id ->
          List.for_all
            (fun source ->
              List.for_all
                (fun sink ->
                  Test_access.feasible sys ~application:Proc.Processor.Bist
                    ~module_id:id ~source ~sink
                  = Resource.valid_pair ~source ~sink)
                endpoints)
            endpoints)
        (System.module_ids sys))

(* --- the sweep against a from-scratch reference ----------------------- *)

module Fault = Nocplan_fault
module Injector = Fault.Injector
module Recover = Fault.Recover

(* What the sweep did before it shared work across rates: every rate
   schedules its own baseline, and every step replans with
   [Recover.after] building its degraded table from scratch. *)
let reference_sweep ~application ~power_limit ~reuse ~seed ~rates sys =
  let config = Scheduler.config ~application ~power_limit ~reuse () in
  let horizon = max 1 (Scheduler.run sys config).Schedule.makespan in
  List.map
    (fun rate ->
      let events = Injector.draw ~seed ~rate ~horizon sys.System.topology in
      let instants =
        List.sort_uniq Int.compare
          (List.map (fun (e : Injector.event) -> e.Injector.at) events)
      in
      let final, _, abandoned, steps =
        List.fold_left
          (fun (sched, faults, abandoned, steps) at ->
            let targets =
              List.filter_map
                (fun (e : Injector.event) ->
                  if e.Injector.at = at then Some e.Injector.target else None)
                events
            in
            let faults =
              Fault.Detour.union faults (Injector.fault_set_of targets)
            in
            let o =
              Recover.after ~application ~power_limit ~abandoned ~reuse ~at
                ~faults sys sched
            in
            ( Schedule.of_entries (o.Recover.kept @ o.Recover.replanned),
              faults,
              o.Recover.abandoned,
              steps @ [ (at, targets, faults, o) ] ))
          (Scheduler.run sys config, Fault.Detour.no_faults, [], [])
          instants
      in
      (List.length events, abandoned, final.Schedule.makespan, steps))
    rates

let prop_sweep_matches_reference =
  let corpus_item_gen =
    QCheck2.Gen.(
      map2
        (fun seed index ->
          Nocplan_corpus.Corpus.item ~seed:(Int64.of_int seed) ~index)
        (int_range 0 10_000) (int_range 0 50))
  in
  qcheck ~count:12
    "sweep = per-rate baselines and from-scratch replans, both applications"
    QCheck2.Gen.(pair corpus_item_gen (int_range 0 1000))
    (fun (item, seed) ->
      let sys = item.Nocplan_corpus.Corpus.system in
      let power_limit = item.Nocplan_corpus.Corpus.power_limit in
      let reuse = item.Nocplan_corpus.Corpus.reuse in
      let rates = [ 0.0; 0.1; 0.25; 0.5 ] in
      List.for_all
        (fun application ->
          (* A detour can outgrow the item's power floor; both sides
             must then give up alike. *)
          let attempt f =
            match f () with
            | v -> Some v
            | exception Scheduler.Unschedulable _ -> None
          in
          match
            ( attempt (fun () ->
                  Injector.sweep ~application ~power_limit ~reuse ~seed ~rates
                    sys),
              attempt (fun () ->
                  reference_sweep ~application ~power_limit ~reuse ~seed
                    ~rates sys) )
          with
          | None, None -> true
          | None, Some _ | Some _, None -> false
          | Some sweep, Some reference ->
              List.for_all2
                (fun ((p : Injector.point), (r : Injector.run))
                     (injected, abandoned, makespan, steps) ->
                  p.Injector.injected = injected
                  && r.Injector.abandoned = abandoned
                  && p.Injector.abandoned_count = List.length abandoned
                  && p.Injector.availability
                     = Recover.availability_of sys ~abandoned
                  && p.Injector.makespan = makespan
                  && p.Injector.replans = List.length steps
                  && List.map
                       (fun (s : Injector.step) ->
                         ( s.Injector.at,
                           s.Injector.injected,
                           s.Injector.faults,
                           s.Injector.outcome ))
                       r.Injector.steps
                     = steps)
                sweep reference)
        [ Proc.Processor.Bist; Proc.Processor.Decompression ])

let suite =
  [
    Alcotest.test_case "route feasibility basics" `Quick
      test_route_feasible_basics;
    Alcotest.test_case "failed link blocks its paths" `Quick
      test_failed_link_blocks_path;
    Alcotest.test_case "scheduler routes around faults" `Quick
      test_scheduler_routes_around_fault;
    Alcotest.test_case "isolation detected" `Quick
      test_unschedulable_when_isolated;
    Alcotest.test_case "validator catches failed-link use" `Quick
      test_validator_catches_failed_link_use;
    Alcotest.test_case "failures accumulate" `Quick
      test_with_failed_links_accumulates;
    prop_fault_free_systems_unaffected;
    prop_sweep_matches_reference;
  ]
