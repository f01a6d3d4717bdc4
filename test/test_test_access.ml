open Util
module Core = Nocplan_core
module Test_access = Core.Test_access
module Resource = Core.Resource
module System = Core.System
module Coord = Nocplan_noc.Coord
module Link = Nocplan_noc.Link
module Proc = Nocplan_proc

let system () = small_system ()
let ein sys = Resource.External_in (List.hd sys.System.io_inputs)
let eout sys = Resource.External_out (List.hd sys.System.io_outputs)
let proc sys = Resource.Processor (List.hd sys.System.processors).System.module_id

let cost ?(application = Proc.Processor.Bist) sys ~module_id ~source ~sink =
  Test_access.cost sys ~application ~module_id ~source ~sink

let test_external_pair_cost () =
  let sys = system () in
  let c = cost sys ~module_id:1 ~source:(ein sys) ~sink:(eout sys) in
  Alcotest.(check bool) "positive duration" true (c.Test_access.duration > 0);
  Alcotest.(check bool) "positive power" true (c.Test_access.power > 0.0);
  Alcotest.(check bool) "has links" true (List.length c.Test_access.links >= 2)

let test_processor_source_slower () =
  (* Same core, same sink: a BIST-sourcing processor adds its
     generation overhead to every pattern.  Zero routing latency and
     unit flow latency make the transport term equal to the core's
     shift time on every path, so the difference is exactly the
     measured 10-cycle Leon generation overhead. *)
  let sys =
    Core.System.build
      ~latency:(Nocplan_noc.Latency.make ~routing_latency:0 ~flow_latency:1)
      ~soc:(small_soc ())
      ~topology:(Nocplan_noc.Topology.make ~width:3 ~height:3)
      ~processors:[ Proc.Processor.leon ~id:1 ]
      ~io_inputs:[ Coord.make ~x:0 ~y:0 ]
      ~io_outputs:[ Coord.make ~x:2 ~y:2 ]
      ()
  in
  (* Module 2 sits on a tile distinct from both ports and the
     processor, so neither pair shares stimulus/response channels. *)
  let ext = cost sys ~module_id:2 ~source:(ein sys) ~sink:(eout sys) in
  let via_proc = cost sys ~module_id:2 ~source:(proc sys) ~sink:(eout sys) in
  Alcotest.(check bool) "per-pattern slower via processor" true
    (via_proc.Test_access.per_pattern > ext.Test_access.per_pattern);
  Alcotest.(check int) "exactly the generation overhead"
    (ext.Test_access.per_pattern + 10)
    via_proc.Test_access.per_pattern

let test_power_includes_all_parties () =
  let sys = system () in
  let m = Nocplan_itc02.Soc.find sys.System.soc 1 in
  let c = cost sys ~module_id:1 ~source:(proc sys) ~sink:(eout sys) in
  let leon = (List.hd sys.System.processors).System.processor in
  let floor_power =
    m.Nocplan_itc02.Module_def.test_power
    +. leon.Proc.Processor.bist.Proc.Characterization.power
  in
  Alcotest.(check bool) "core + processor + noc" true
    (c.Test_access.power > floor_power)

let test_invalid_pairs_rejected () =
  let sys = system () in
  (match cost sys ~module_id:1 ~source:(eout sys) ~sink:(ein sys) with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "swapped roles accepted");
  (match cost sys ~module_id:99 ~source:(ein sys) ~sink:(eout sys) with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "unknown module accepted");
  match cost sys ~module_id:1 ~source:(proc sys) ~sink:(proc sys) with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "same processor both roles accepted"

let test_links_deduplicated () =
  let sys = system () in
  let c = cost sys ~module_id:1 ~source:(ein sys) ~sink:(eout sys) in
  let sorted = List.sort_uniq Link.compare c.Test_access.links in
  Alcotest.(check int) "no duplicate links" (List.length sorted)
    (List.length c.Test_access.links)

let test_duration_scales_with_patterns () =
  (* Same geometry, more patterns: proportionally longer. *)
  let soc_of patterns =
    Nocplan_itc02.Soc.make ~name:"t"
      ~modules:
        [
          Nocplan_itc02.Module_def.make ~id:1 ~name:"a" ~inputs:8 ~outputs:8
            ~scan_chains:[ 32 ] ~patterns ();
        ]
  in
  let build patterns =
    Core.System.build ~soc:(soc_of patterns)
      ~topology:(Nocplan_noc.Topology.make ~width:2 ~height:2)
      ~processors:[]
      ~io_inputs:[ Coord.make ~x:0 ~y:0 ]
      ~io_outputs:[ Coord.make ~x:1 ~y:1 ]
      ()
  in
  let duration patterns =
    let sys = build patterns in
    (cost sys ~module_id:1 ~source:(ein sys) ~sink:(eout sys)).Test_access.duration
  in
  let d10 = duration 10 and d20 = duration 20 in
  let per_pattern = d20 - d10 in
  Alcotest.(check bool) "per-pattern cost constant" true
    (per_pattern * 10 > (d10 / 2) && d20 > d10)

let test_flit_width_matters () =
  (* A wider flit shortens the wrapper chains and hence the test. *)
  let soc =
    Nocplan_itc02.Soc.make ~name:"t"
      ~modules:
        [
          Nocplan_itc02.Module_def.make ~id:1 ~name:"a" ~inputs:16 ~outputs:16
            ~scan_chains:[ 64; 64; 64; 64 ] ~patterns:50 ();
        ]
  in
  let build flit_width =
    Core.System.build ~flit_width ~soc
      ~topology:(Nocplan_noc.Topology.make ~width:2 ~height:2)
      ~processors:[]
      ~io_inputs:[ Coord.make ~x:0 ~y:0 ]
      ~io_outputs:[ Coord.make ~x:1 ~y:1 ]
      ()
  in
  let duration w =
    let sys = build w in
    (cost sys ~module_id:1 ~source:(ein sys) ~sink:(eout sys)).Test_access.duration
  in
  (* At width 8 the 16 input cells land on the four chainless wrapper
     chains, so si stays 64 as at width 32; at width 2 the chains must
     share wrapper chains and the test stretches. *)
  Alcotest.(check bool) "wider is faster" true (duration 2 > duration 32)

let prop_cost_well_formed =
  qcheck ~count:40 "cost is well-formed for every core and pair" system_gen
    (fun sys ->
      let endpoints =
        Resource.all_endpoints sys
          ~reuse:(List.length sys.System.processors)
      in
      let sources = List.filter Resource.can_source endpoints in
      let sinks = List.filter Resource.can_sink endpoints in
      List.for_all
        (fun module_id ->
          List.for_all
            (fun source ->
              List.for_all
                (fun sink ->
                  (not (Resource.valid_pair ~source ~sink))
                  ||
                  let c =
                    Test_access.cost sys ~application:Proc.Processor.Bist
                      ~module_id ~source ~sink
                  in
                  c.Test_access.duration > 0
                  && c.Test_access.power > 0.0
                  && c.Test_access.per_pattern > 0
                  && c.Test_access.routers > 0)
                sinks)
            sources)
        (System.module_ids sys))

(* --- table fallback paths ------------------------------------------ *)

(* The same modules as [small_soc] under ids no table of the standard
   fixtures knows, so every table lookup for its schedule misses. *)
let renumbered_system () =
  let bump (m : Nocplan_itc02.Module_def.t) =
    Nocplan_itc02.Module_def.make ~id:(m.Nocplan_itc02.Module_def.id + 100)
      ~name:m.Nocplan_itc02.Module_def.name
      ~inputs:m.Nocplan_itc02.Module_def.inputs
      ~outputs:m.Nocplan_itc02.Module_def.outputs
      ~scan_chains:m.Nocplan_itc02.Module_def.scan_chains
      ~patterns:m.Nocplan_itc02.Module_def.patterns ()
  in
  let soc =
    Nocplan_itc02.Soc.make ~name:"tiny-renumbered"
      ~modules:(List.map bump (small_soc ()).Nocplan_itc02.Soc.modules)
  in
  Core.System.build ~soc
    ~topology:(Nocplan_noc.Topology.make ~width:3 ~height:3)
    ~processors:[ Proc.Processor.leon ~id:1 ]
    ~io_inputs:[ Coord.make ~x:0 ~y:0 ]
    ~io_outputs:[ Coord.make ~x:2 ~y:2 ]
    ()

let violation_strings = function
  | Ok () -> []
  | Error vs ->
      List.sort String.compare
        (List.map (Fmt.str "%a" Core.Schedule.pp_violation) vs)

let validate ?access sys sched =
  violation_strings
    (Core.Schedule.validate ?access sys ~application:Proc.Processor.Bist
       ~power_limit:None ~reuse:1 sched)

let test_scheduler_rejects_foreign_table () =
  let sys = system () in
  let twin = system () in
  (* Physically distinct, even though structurally identical. *)
  (match
     Core.Scheduler.run
       ~access:(Test_access.table twin)
       sys
       (Core.Scheduler.config ~reuse:1 ())
   with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "table of another system accepted");
  match
    Core.Scheduler.run
      ~access:(Test_access.table ~application:Proc.Processor.Decompression sys)
      sys
      (Core.Scheduler.config ~reuse:1 ())
  with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "table of another application accepted"

let test_validate_falls_back_on_lookup_miss () =
  (* A table that knows none of the schedule's modules: every lookup
     raises, validate silently recomputes directly, and the verdict is
     identical to running without a table — on a valid schedule and on
     a tampered one alike. *)
  let foreign_table = Test_access.table (system ()) in
  let sys = renumbered_system () in
  let sched = Core.Scheduler.run sys (Core.Scheduler.config ~reuse:1 ()) in
  Alcotest.(check (list string))
    "valid schedule: same verdict" (validate sys sched)
    (validate ~access:foreign_table sys sched);
  Alcotest.(check (list string)) "and that verdict is clean" []
    (validate ~access:foreign_table sys sched);
  let tampered =
    Core.Schedule.of_entries
      (List.mapi
         (fun i (e : Core.Schedule.entry) ->
           if i = 0 then { e with Core.Schedule.finish = e.Core.Schedule.finish + 7 }
           else e)
         sched.Core.Schedule.entries)
  in
  let direct = validate sys tampered in
  Alcotest.(check bool) "tampering detected" true (direct <> []);
  Alcotest.(check (list string))
    "tampered schedule: same violations via fallback" direct
    (validate ~access:foreign_table sys tampered)

let test_validate_with_twin_table_identical () =
  (* A table from a structurally identical twin passes the lookups and
     returns the same costs, so the verdict still matches the direct
     computation (the mli's cache-never-oracle contract). *)
  let sys = system () in
  let twin_table = Test_access.table (system ()) in
  let sched = Core.Scheduler.run sys (Core.Scheduler.config ~reuse:1 ()) in
  Alcotest.(check (list string))
    "same verdict through the twin table" (validate sys sched)
    (validate ~access:twin_table sys sched)

let test_sweep_ignores_mismatched_table () =
  (* Planner.reuse_sweep treats a foreign table as absent (it rebuilds)
     rather than failing: the series must equal the tableless run. *)
  let sys = system () in
  let foreign = Test_access.table (renumbered_system ()) in
  let series (s : Core.Planner.sweep) =
    List.map
      (fun (p : Core.Planner.point) -> (p.Core.Planner.reuse, p.Core.Planner.makespan))
      s.Core.Planner.points
  in
  Alcotest.(check (list (pair int int)))
    "identical series"
    (series (Core.Planner.reuse_sweep sys))
    (series (Core.Planner.reuse_sweep ~access:foreign sys))

(* --- tables derived from the healthy one ----------------------------- *)

module Fault = Nocplan_fault
module Corpus = Nocplan_corpus.Corpus

(* Everything a table answers, per (module, source, sink), with channel
   ids mapped back to links: a derived table extends its base's channel
   numbering, so only the links behind the ids are comparable with a
   fresh build's.  Fails if a table's numbering is not a bijection or
   disagrees with the cell's cost. *)
let table_view sys access =
  let endpoints =
    Resource.all_endpoints sys ~reuse:(List.length sys.System.processors)
  in
  let link_of = Hashtbl.create 64 and id_of = Hashtbl.create 64 in
  let bind id l =
    (match Hashtbl.find_opt link_of id with
    | Some l' when not (Link.equal l l') ->
        Alcotest.failf "channel %d names two links" id
    | _ -> Hashtbl.replace link_of id l);
    match Hashtbl.find_opt id_of l with
    | Some id' when id' <> id ->
        Alcotest.failf "link %a has two channel ids" Link.pp l
    | _ -> Hashtbl.replace id_of l id
  in
  List.concat_map
    (fun module_id ->
      let row = Test_access.module_row access module_id in
      List.concat_map
        (fun source ->
          let src = Test_access.endpoint_id access source in
          List.map
            (fun sink ->
              let snk = Test_access.endpoint_id access sink in
              let cost =
                match Test_access.cost_ix access ~row ~src ~snk with
                | c -> Some c
                | exception Invalid_argument _ -> None
              in
              let channels =
                Array.to_list (Test_access.channels_ix access ~row ~src ~snk)
              in
              (match cost with
              | Some c
                when List.length c.Test_access.links = List.length channels ->
                  List.iter2 bind channels c.Test_access.links
              | Some _ -> Alcotest.fail "channels and links differ in length"
              | None ->
                  if channels <> [] then
                    Alcotest.fail "a cell without cost has channels");
              ( ( Test_access.feasible_ix access ~row ~src ~snk,
                  Test_access.table_route_feasible access ~module_id ~source
                    ~sink,
                  Test_access.table_memory_feasible access ~module_id ~source
                ),
                cost,
                List.map (Hashtbl.find link_of) channels ))
            endpoints)
        endpoints)
    (System.module_ids sys)

let corpus_item_gen =
  QCheck2.Gen.(
    map2
      (fun seed index -> Corpus.item ~seed:(Int64.of_int seed) ~index)
      (int_range 0 10_000) (int_range 0 50))

let prop_degrade_matches_fresh =
  qcheck ~count:15
    "table_degrade = a fresh detour-routed table, nested fault sets, both \
     applications"
    QCheck2.Gen.(pair corpus_item_gen (int_range 0 1000))
    (fun (item, seed) ->
      let sys = item.Corpus.system in
      let topology = sys.System.topology in
      List.for_all
        (fun application ->
          let healthy = Test_access.table ~application sys in
          List.for_all
            (fun rate ->
              let events =
                Fault.Injector.draw ~seed ~rate ~horizon:100 topology
              in
              let faults =
                Fault.Injector.fault_set_of
                  (List.map
                     (fun (e : Fault.Injector.event) -> e.Fault.Injector.target)
                     events)
              in
              let route =
                Fault.Detour.route_fn (Fault.Detour.table topology faults)
              in
              let degraded =
                System.with_failed_links sys
                  (Fault.Detour.blocked_links topology faults)
              in
              let derived =
                Test_access.table_degrade healthy ~system:degraded ~route
              in
              Test_access.table_for derived ~system:degraded ~application
              && table_view degraded derived
                 = table_view degraded
                     (Test_access.table ~application ~route degraded))
            [ 0.1; 0.25; 0.5 ])
        [ Proc.Processor.Bist; Proc.Processor.Decompression ])

(* The faults of a campaign's prefix up to [rate] and its degraded
   system and detour router. *)
let fault_step sys ~seed rate =
  let topology = sys.System.topology in
  let faults =
    Fault.Injector.fault_set_of
      (List.map
         (fun (e : Fault.Injector.event) -> e.Fault.Injector.target)
         (Fault.Injector.draw ~seed ~rate ~horizon:100 topology))
  in
  ( System.with_failed_links sys (Fault.Detour.blocked_links topology faults),
    Fault.Detour.route_fn (Fault.Detour.table topology faults) )

let prop_degrade_chain_matches_fresh =
  qcheck ~count:15
    "a table_degrade chain over nested fault sets = fresh tables at every \
     step; non-subset bases rejected"
    QCheck2.Gen.(pair corpus_item_gen (int_range 0 1000))
    (fun (item, seed) ->
      let sys = item.Corpus.system in
      let steps = List.map (fault_step sys ~seed) [ 0.05; 0.1; 0.25; 0.5 ] in
      List.for_all
        (fun application ->
          let rec derive base = function
            | [] -> []
            | (degraded, route) :: rest ->
                let t =
                  Test_access.table_degrade base ~system:degraded ~route
                in
                t :: derive t rest
          in
          let chain = derive (Test_access.table ~application sys) steps in
          let matches =
            List.for_all2
              (fun derived (degraded, route) ->
                Test_access.table_for derived ~system:degraded ~application
                && table_view degraded derived
                   = table_view degraded
                       (Test_access.table ~application ~route degraded))
              chain steps
          in
          (* The chain's last table, as a base for an earlier step's
             system, carries faults that system lacks: unless the
             fault sets happen to coincide, it must be refused. *)
          let last = List.nth chain (List.length chain - 1) in
          let last_system, _ = List.nth steps (List.length steps - 1) in
          let refuses_supersets =
            List.for_all
              (fun ((earlier : System.t), route) ->
                Link.Set.subset last_system.System.failed_links
                  earlier.System.failed_links
                || (not (Test_access.degradable last ~system:earlier))
                   &&
                   match
                     Test_access.table_degrade last ~system:earlier ~route
                   with
                   | _ -> false
                   | exception Invalid_argument _ -> true)
              steps
          in
          matches && refuses_supersets)
        [ Proc.Processor.Bist; Proc.Processor.Decompression ])

let test_degrade_rejects_underivable_base () =
  let sys = system () in
  let topology = sys.System.topology in
  let link = Link.channel (Coord.make ~x:0 ~y:0) (Coord.make ~x:1 ~y:0) in
  let other = Link.channel (Coord.make ~x:1 ~y:1) (Coord.make ~x:2 ~y:1) in
  let broken = System.with_failed_links sys [ link ] in
  let detour links =
    Fault.Detour.route_fn
      (Fault.Detour.table topology (Fault.Detour.fault_set ~links ()))
  in
  let xy ~src ~dst = Some (Nocplan_noc.Xy_routing.route topology ~src ~dst) in
  let rejects name base ~system =
    Alcotest.(check bool) (name ^ ": not degradable") false
      (Test_access.degradable base ~system);
    match Test_access.table_degrade base ~system ~route:(detour [ link ]) with
    | _ -> Alcotest.failf "%s: accepted" name
    | exception Invalid_argument _ -> ()
  in
  rejects "another system" (Test_access.table sys)
    ~system:(System.with_failed_links (renumbered_system ()) [ link ]);
  rejects "moved modules" (Test_access.table sys)
    ~system:(System.with_failed_links (System.swap_tiles sys 1 2) [ link ]);
  rejects "faults not a subset"
    (Test_access.table ~route:(detour [ other ])
       (System.with_failed_links sys [ other ]))
    ~system:broken;
  (* Any base of the same system whose failed links the new system
     keeps is accepted, and derives the fresh table. *)
  let accepts name base ~system ~route =
    Alcotest.(check bool) (name ^ ": degradable") true
      (Test_access.degradable base ~system);
    Alcotest.(check bool) (name ^ ": derives the fresh table") true
      (table_view system (Test_access.table_degrade base ~system ~route)
      = table_view system (Test_access.table ~route system))
  in
  let both = System.with_failed_links broken [ other ] in
  accepts "healthy XY base" (Test_access.table sys) ~system:broken
    ~route:(detour [ link ]);
  accepts "routed healthy base" (Test_access.table ~route:xy sys)
    ~system:broken ~route:(detour [ link ]);
  accepts "XY base with failed links" (Test_access.table broken) ~system:both
    ~route:(detour [ link; other ]);
  accepts "derived base"
    (Test_access.table_degrade (Test_access.table sys) ~system:broken
       ~route:(detour [ link ]))
    ~system:both ~route:(detour [ link; other ]);
  accepts "same fault set" (Test_access.table ~route:(detour [ link ]) broken)
    ~system:broken ~route:(detour [ link ])

let test_degrade_span () =
  (* A dead router on the mesh's middle tile reroutes some legs. *)
  let sys = system () in
  let topology = sys.System.topology in
  let faults = Fault.Detour.fault_set ~routers:[ Coord.make ~x:1 ~y:1 ] () in
  let degraded =
    System.with_failed_links sys (Fault.Detour.blocked_links topology faults)
  in
  let route = Fault.Detour.route_fn (Fault.Detour.table topology faults) in
  let healthy = Test_access.table sys in
  let _, events =
    Nocplan_obs.Trace.with_collector (fun () ->
        Test_access.table_degrade healthy ~system:degraded ~route)
  in
  let spans =
    List.filter
      (fun (e : Nocplan_obs.Trace.event) ->
        e.Nocplan_obs.Trace.name = "access.table")
      events
  in
  match spans with
  | [ b; e ] ->
      Alcotest.(check (option bool)) "begin marks the table derived"
        (Some true)
        (Nocplan_obs.Trace.attr_bool b "derived");
      Alcotest.(check bool) "end counts the repriced cells" true
        (match Nocplan_obs.Trace.attr_int e "recomputed" with
        | Some n -> n > 0
        | None -> false)
  | _ -> Alcotest.failf "expected one access.table span, got %d events"
           (List.length spans)

let suite =
  [
    Alcotest.test_case "external pair cost" `Quick test_external_pair_cost;
    Alcotest.test_case "processor source adds overhead" `Quick
      test_processor_source_slower;
    Alcotest.test_case "power includes all parties" `Quick
      test_power_includes_all_parties;
    Alcotest.test_case "invalid pairs rejected" `Quick
      test_invalid_pairs_rejected;
    Alcotest.test_case "links deduplicated" `Quick test_links_deduplicated;
    Alcotest.test_case "duration scales with patterns" `Quick
      test_duration_scales_with_patterns;
    Alcotest.test_case "flit width matters" `Quick test_flit_width_matters;
    Alcotest.test_case "scheduler rejects foreign table" `Quick
      test_scheduler_rejects_foreign_table;
    Alcotest.test_case "validate falls back on lookup miss" `Quick
      test_validate_falls_back_on_lookup_miss;
    Alcotest.test_case "validate via twin table identical" `Quick
      test_validate_with_twin_table_identical;
    Alcotest.test_case "sweep ignores mismatched table" `Quick
      test_sweep_ignores_mismatched_table;
    prop_cost_well_formed;
    prop_degrade_matches_fresh;
    prop_degrade_chain_matches_fresh;
    Alcotest.test_case "table_degrade rejects a base it cannot derive from"
      `Quick test_degrade_rejects_underivable_base;
    Alcotest.test_case "derived tables emit a derived access.table span"
      `Quick test_degrade_span;
  ]
