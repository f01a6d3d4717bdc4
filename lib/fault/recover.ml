module Link = Nocplan_noc.Link
module Processor = Nocplan_proc.Processor
module Trace = Nocplan_obs.Trace
module System = Nocplan_core.System
module Schedule = Nocplan_core.Schedule
module Scheduler = Nocplan_core.Scheduler
module Test_access = Nocplan_core.Test_access
module Resource = Nocplan_core.Resource

type outcome = {
  kept : Schedule.entry list;
  voided : Schedule.entry list;
  abandoned : int list;
  replanned : Schedule.entry list;
  makespan : int;
  availability : float;
}

let availability_of system ~abandoned =
  let total = List.length (System.module_ids system) in
  if total = 0 then 1.0
  else float_of_int (total - List.length abandoned) /. float_of_int total

let after ?(policy = Scheduler.Greedy) ?(application = Processor.Bist)
    ?(power_limit = None) ?(abandoned = []) ?access ~reuse ~at ~faults system
    (schedule : Schedule.t) =
  if at < 0 then invalid_arg "Recover.after: negative event time";
  Trace.span "fault.replan"
    ~attrs:
      [
        ("at", Trace.Int at);
        ("faults", Trace.Int (Detour.fault_count faults));
      ]
  @@ fun () ->
  let kept, voided =
    List.partition
      (fun (e : Schedule.entry) -> e.Schedule.finish <= at)
      schedule.Schedule.entries
  in
  let done_ids =
    List.map (fun (e : Schedule.entry) -> e.Schedule.module_id) kept
  in
  let remaining =
    List.filter
      (fun id -> (not (List.mem id done_ids)) && not (List.mem id abandoned))
      (System.module_ids system)
  in
  let topology = system.System.topology in
  let detour = Detour.table topology faults in
  let degraded =
    System.with_failed_links system (Detour.blocked_links topology faults)
  in
  let route = Detour.route_fn detour in
  let access =
    match access with
    | Some healthy
      when Test_access.table_for healthy ~system ~application
           && Test_access.degradable healthy ~system:degraded ->
        Test_access.table_degrade healthy ~system:degraded ~route
    | Some _ | None -> Test_access.table ~application ~route degraded
  in
  let endpoints = Resource.all_endpoints degraded ~reuse in
  let pretested =
    List.filter (fun id -> System.is_processor_module system id) done_ids
  in
  (* Which remaining modules can still be tested at all?  Closure over
     the endpoint pool: the pool starts as the external ports plus the
     pretested processors; a module is testable when some feasible
     pair draws only on the pool; a testable within-reuse processor
     then joins the pool.  Whatever the fixpoint leaves out has no
     test path on the degraded NoC and is abandoned — handing it to
     the scheduler would only deadlock it. *)
  let avail = Hashtbl.create 16 in
  List.iter (fun id -> Hashtbl.replace avail id ()) pretested;
  let endpoint_live = function
    | Resource.External_in _ | Resource.External_out _ -> true
    | Resource.Processor id -> Hashtbl.mem avail id
  in
  let testable id =
    List.exists
      (fun src ->
        endpoint_live src
        && List.exists
             (fun snk ->
               endpoint_live snk
               && Resource.valid_pair ~source:src ~sink:snk
               && Test_access.table_feasible access ~module_id:id ~source:src
                    ~sink:snk)
             endpoints)
      endpoints
  in
  let schedulable = Hashtbl.create 16 in
  let changed = ref true in
  while !changed do
    changed := false;
    List.iter
      (fun id ->
        if (not (Hashtbl.mem schedulable id)) && testable id then begin
          Hashtbl.replace schedulable id ();
          if
            System.is_processor_module system id
            && List.exists (Resource.equal (Resource.Processor id)) endpoints
          then Hashtbl.replace avail id ();
          changed := true
        end)
      remaining
  done;
  let schedulable_ids = List.filter (Hashtbl.mem schedulable) remaining in
  let newly_abandoned =
    List.filter (fun id -> not (Hashtbl.mem schedulable id)) remaining
  in
  let abandoned = List.sort_uniq Int.compare (abandoned @ newly_abandoned) in
  let replanned =
    if schedulable_ids = [] then []
    else
      (Scheduler.run ~access degraded
         (Scheduler.config ~policy ~application ~power_limit ~start_time:at
            ~modules:schedulable_ids ~pretested ~reuse ()))
        .Schedule.entries
  in
  let makespan =
    List.fold_left
      (fun acc (e : Schedule.entry) -> max acc e.Schedule.finish)
      0 (kept @ replanned)
  in
  {
    kept;
    voided;
    abandoned;
    replanned;
    makespan;
    availability = availability_of system ~abandoned;
  }

type violation =
  | Coverage of int
  | Abandoned_but_tested of int
  | Too_early of Schedule.entry
  | Entry_invalid of Schedule.entry
  | Faulty_link_used of { entry : Schedule.entry; link : Link.t }
  | Endpoint_conflict of Resource.endpoint
  | Link_conflict of Link.t
  | Processor_not_ready of { user : Schedule.entry; processor_id : int }

let validate ?(application = Processor.Bist) ~reuse ~at ~faults system o =
  ignore reuse;
  let topology = system.System.topology in
  let detour = Detour.table topology faults in
  let blocked_list = Detour.blocked_links topology faults in
  let blocked = Link.Set.of_list blocked_list in
  let degraded = System.with_failed_links system blocked_list in
  let access =
    Test_access.table ~application ~route:(Detour.route_fn detour) degraded
  in
  let violations = ref [] in
  let add v = violations := v :: !violations in
  let combined = o.kept @ o.replanned in
  (* every module is either abandoned and untested, or tested exactly
     once across kept + replanned *)
  List.iter
    (fun id ->
      let count =
        List.length
          (List.filter
             (fun (e : Schedule.entry) -> e.Schedule.module_id = id)
             combined)
      in
      if List.mem id o.abandoned then begin
        if count > 0 then add (Abandoned_but_tested id)
      end
      else if count <> 1 then add (Coverage id))
    (System.module_ids system);
  (* replanned entries: timing, feasibility under the detour-priced
     table, and — the point of the subsystem — healthy links only *)
  List.iter
    (fun (e : Schedule.entry) ->
      if e.Schedule.start < at then add (Too_early e);
      let feasible =
        match
          Test_access.table_cost access ~module_id:e.Schedule.module_id
            ~source:e.Schedule.source ~sink:e.Schedule.sink
        with
        | c ->
            Test_access.table_feasible access ~module_id:e.Schedule.module_id
              ~source:e.Schedule.source ~sink:e.Schedule.sink
            && e.Schedule.finish - e.Schedule.start = c.Test_access.duration
        | exception Invalid_argument _ -> false
      in
      if not feasible then add (Entry_invalid e);
      List.iter
        (fun l ->
          if Link.Set.mem l blocked then add (Faulty_link_used { entry = e; link = l }))
        e.Schedule.links)
    o.replanned;
  (* exclusivity among replanned entries (kept entries all end by [at]) *)
  let overlapping (a : Schedule.entry) (b : Schedule.entry) =
    a.Schedule.start < b.Schedule.finish && b.Schedule.start < a.Schedule.finish
  in
  let rec pairs = function
    | [] -> ()
    | (e : Schedule.entry) :: rest ->
        List.iter
          (fun (e' : Schedule.entry) ->
            if overlapping e e' then begin
              List.iter
                (fun (a, b) ->
                  if Resource.equal a b then add (Endpoint_conflict a))
                [
                  (e.Schedule.source, e'.Schedule.source);
                  (e.Schedule.source, e'.Schedule.sink);
                  (e.Schedule.sink, e'.Schedule.source);
                  (e.Schedule.sink, e'.Schedule.sink);
                ];
              let links' = Link.Set.of_list e'.Schedule.links in
              List.iter
                (fun l -> if Link.Set.mem l links' then add (Link_conflict l))
                e.Schedule.links
            end)
          rest;
        pairs rest
  in
  pairs o.replanned;
  (* processor precedence across the whole session *)
  let tested_by id =
    match
      List.find_opt
        (fun (e : Schedule.entry) -> e.Schedule.module_id = id)
        combined
    with
    | Some e -> Some e.Schedule.finish
    | None -> None
  in
  List.iter
    (fun (e : Schedule.entry) ->
      let check = function
        | Resource.Processor id -> (
            match tested_by id with
            | Some finish when finish <= e.Schedule.start -> ()
            | Some _ | None ->
                add (Processor_not_ready { user = e; processor_id = id }))
        | Resource.External_in _ | Resource.External_out _ -> ()
      in
      check e.Schedule.source;
      check e.Schedule.sink)
    o.replanned;
  match List.rev !violations with [] -> Ok () | vs -> Error vs

let pp_outcome ppf o =
  Fmt.pf ppf
    "@[<v>fault recovery (makespan %d, availability %.3f):@,\
     kept %d tests, voided %d, abandoned %d, replanned %d@,\
     %a@]"
    o.makespan o.availability (List.length o.kept) (List.length o.voided)
    (List.length o.abandoned)
    (List.length o.replanned)
    (Fmt.list ~sep:Fmt.cut (fun ppf (e : Schedule.entry) ->
         Fmt.pf ppf "  [%d,%d) module %d: %a -> %a" e.Schedule.start
           e.Schedule.finish e.Schedule.module_id Resource.pp
           e.Schedule.source Resource.pp e.Schedule.sink))
    o.replanned

let pp_violation ppf = function
  | Coverage id -> Fmt.pf ppf "module %d not covered exactly once" id
  | Abandoned_but_tested id ->
      Fmt.pf ppf "module %d both abandoned and scheduled" id
  | Too_early e ->
      Fmt.pf ppf "replanned entry starts before the event: module %d at %d"
        e.Schedule.module_id e.Schedule.start
  | Entry_invalid e ->
      Fmt.pf ppf "replanned entry infeasible on the degraded NoC: module %d"
        e.Schedule.module_id
  | Faulty_link_used { entry; link } ->
      Fmt.pf ppf "module %d routed over faulty link %a" entry.Schedule.module_id
        Link.pp link
  | Endpoint_conflict r -> Fmt.pf ppf "endpoint %a double-booked" Resource.pp r
  | Link_conflict l -> Fmt.pf ppf "link %a double-booked" Link.pp l
  | Processor_not_ready { user; processor_id } ->
      Fmt.pf ppf "processor %d used before its test completed (module %d)"
        processor_id user.Schedule.module_id
