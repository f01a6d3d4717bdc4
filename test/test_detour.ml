(* Fault-aware detour routing: XY agreement on the empty fault set,
   the never-touch-a-fault guarantee, and path well-formedness. *)

open Util
module Noc = Nocplan_noc
module Fault = Nocplan_fault
module Detour = Fault.Detour
module Topology = Noc.Topology
module Coord = Noc.Coord
module Link = Noc.Link
module Xy = Noc.Xy_routing

let c x y = Coord.make ~x ~y

let all_coords topology =
  List.init
    (topology.Topology.width * topology.Topology.height)
    (Topology.of_index topology)

(* A random fault set: a few routers and a few directed channels drawn
   from the topology (the same candidate space the injector uses). *)
let fault_set_gen topology =
  let open QCheck2.Gen in
  let coord = coord_in topology in
  let channel =
    let* a = coord in
    match Topology.neighbors topology a with
    | [] -> return None
    | neighbors ->
        let* b = oneofl neighbors in
        return (Some (Link.channel a b))
  in
  let* routers = list_size (int_range 0 3) coord in
  let* channels = list_size (int_range 0 4) channel in
  return (Detour.fault_set ~routers ~links:(List.filter_map Fun.id channels) ())

let topology_and_faults_gen =
  let open QCheck2.Gen in
  let* topology = topology_gen in
  let* faults = fault_set_gen topology in
  return (topology, faults)

let prop_xy_agreement =
  qcheck ~count:50 "empty fault set: route equals XY for every pair"
    topology_gen
    (fun topology ->
      let t = Detour.table topology Detour.no_faults in
      let coords = all_coords topology in
      List.for_all
        (fun src ->
          List.for_all
            (fun dst ->
              Detour.route t ~src ~dst = Some (Xy.route topology ~src ~dst))
            coords)
        coords)

let prop_no_faulty_traversal =
  qcheck ~count:100 "routes never occupy a blocked channel"
    topology_and_faults_gen
    (fun (topology, faults) ->
      let t = Detour.table topology faults in
      let blocked = Link.Set.of_list (Detour.blocked_links topology faults) in
      let coords = all_coords topology in
      List.for_all
        (fun src ->
          List.for_all
            (fun dst ->
              match Detour.links t ~src ~dst with
              | None -> true
              | Some links ->
                  List.for_all (fun l -> not (Link.Set.mem l blocked)) links)
            coords)
        coords)

let prop_routes_well_formed =
  qcheck ~count:100 "routes run src to dst over adjacent healthy routers"
    topology_and_faults_gen
    (fun (topology, faults) ->
      let t = Detour.table topology faults in
      let coords = all_coords topology in
      let rec adjacent = function
        | a :: (b :: _ as rest) ->
            List.mem b (Topology.neighbors topology a) && adjacent rest
        | [ _ ] | [] -> true
      in
      List.for_all
        (fun src ->
          List.for_all
            (fun dst ->
              match Detour.route t ~src ~dst with
              | None -> Detour.reachable t ~src ~dst = false
              | Some path ->
                  path <> []
                  && List.hd path = src
                  && List.nth path (List.length path - 1) = dst
                  && adjacent path
                  && List.for_all (Detour.router_ok t) path)
            coords)
        coords)

(* 3x3 mesh, kill the middle router of the XY path from (0,0) to
   (2,0): the route must leave the bottom row and come back. *)
let test_detour_around_dead_router () =
  let topology = Topology.make ~width:3 ~height:3 in
  let faults = Detour.fault_set ~routers:[ c 1 0 ] () in
  let t = Detour.table topology faults in
  match Detour.route t ~src:(c 0 0) ~dst:(c 2 0) with
  | None -> Alcotest.fail "detour exists but route is None"
  | Some path ->
      Alcotest.(check bool) "avoids the dead router" false
        (List.exists (Coord.equal (c 1 0)) path);
      (* Shortest healthy detour: 4 hops instead of XY's 2. *)
      Alcotest.(check int) "shortest healthy length" 5 (List.length path)

let test_healthy_xy_path_verbatim () =
  (* A fault off the XY path leaves the XY route untouched — the
     bit-identity guarantee for unaffected streams. *)
  let topology = Topology.make ~width:3 ~height:3 in
  let faults = Detour.fault_set ~routers:[ c 0 2 ] () in
  let t = Detour.table topology faults in
  Alcotest.(check bool) "XY path returned verbatim" true
    (Detour.route t ~src:(c 0 0) ~dst:(c 2 0)
    = Some (Xy.route topology ~src:(c 0 0) ~dst:(c 2 0)))

let test_dead_endpoints_and_ports () =
  let topology = Topology.make ~width:3 ~height:3 in
  let dead_dst = Detour.table topology (Detour.fault_set ~routers:[ c 2 2 ] ()) in
  Alcotest.(check bool) "dead destination router" true
    (Detour.route dead_dst ~src:(c 0 0) ~dst:(c 2 2) = None);
  let dead_inject =
    Detour.table topology (Detour.fault_set ~links:[ Link.Inject (c 0 0) ] ())
  in
  Alcotest.(check bool) "dead inject port blocks sourcing" true
    (Detour.route dead_inject ~src:(c 0 0) ~dst:(c 2 2) = None);
  Alcotest.(check bool) "but not sinking at the same tile" true
    (Detour.route dead_inject ~src:(c 2 2) ~dst:(c 0 0) <> None);
  let dead_eject =
    Detour.table topology (Detour.fault_set ~links:[ Link.Eject (c 2 2) ] ())
  in
  Alcotest.(check bool) "dead eject port blocks sinking" true
    (Detour.route dead_eject ~src:(c 0 0) ~dst:(c 2 2) = None)

let test_unreachable_is_none () =
  (* 2x1 mesh with both directed channels dead: the tiles can still
     talk to themselves, not to each other. *)
  let topology = Topology.make ~width:2 ~height:1 in
  let faults =
    Detour.fault_set
      ~links:[ Link.channel (c 0 0) (c 1 0); Link.channel (c 1 0) (c 0 0) ]
      ()
  in
  let t = Detour.table topology faults in
  Alcotest.(check bool) "cut pair unreachable" true
    (Detour.route t ~src:(c 0 0) ~dst:(c 1 0) = None);
  Alcotest.(check bool) "self route survives" true
    (Detour.route t ~src:(c 1 0) ~dst:(c 1 0) = Some [ c 1 0 ])

let test_blocked_links_of_dead_router () =
  (* A dead router takes out its local ports and every incident
     channel, both directions. *)
  let topology = Topology.make ~width:3 ~height:3 in
  let blocked =
    Detour.blocked_links topology (Detour.fault_set ~routers:[ c 1 1 ] ())
  in
  let expect =
    [ Link.Inject (c 1 1); Link.Eject (c 1 1) ]
    @ List.concat_map
        (fun n -> [ Link.channel (c 1 1) n; Link.channel n (c 1 1) ])
        (Topology.neighbors topology (c 1 1))
  in
  List.iter
    (fun l ->
      Alcotest.(check bool)
        (Fmt.str "blocked: %a" Link.pp l)
        true
        (List.exists (Link.equal l) blocked))
    expect

let test_fault_set_normalizes () =
  let a = Detour.fault_set ~routers:[ c 1 1; c 0 0; c 1 1 ] () in
  Alcotest.(check int) "routers deduplicated" 2 (List.length a.Detour.routers);
  let b = Detour.fault_set ~routers:[ c 2 2 ] () in
  Alcotest.(check int) "union counts distinct elements" 3
    (Detour.fault_count (Detour.union a b));
  Alcotest.(check bool) "no_faults is empty" true (Detour.is_empty Detour.no_faults)

(* The eager reference router: every destination's BFS up front, then
   the documented rule — the XY path when it is fully healthy, else the
   shortest healthy path with ties broken in [Topology.neighbors]
   order.  The lazy table must agree with it on every pair. *)
let eager_route topology faults =
  let n = Topology.router_count topology in
  let dead_router c = List.exists (Coord.equal c) faults.Detour.routers in
  let dead_link l = List.exists (Link.equal l) faults.Detour.links in
  let channel_ok a b =
    (not (dead_router a)) && (not (dead_router b))
    && not (dead_link (Link.channel a b))
  in
  let dist =
    Array.init n (fun d ->
        let dd = Array.make n max_int in
        let dc = Topology.of_index topology d in
        if not (dead_router dc) then begin
          dd.(d) <- 0;
          let q = Queue.create () in
          Queue.push dc q;
          while not (Queue.is_empty q) do
            let v = Queue.pop q in
            List.iter
              (fun u ->
                let ui = Topology.index topology u in
                if dd.(ui) = max_int && channel_ok u v then begin
                  dd.(ui) <- dd.(Topology.index topology v) + 1;
                  Queue.push u q
                end)
              (Topology.neighbors topology v)
          done
        end;
        dd)
  in
  fun ~src ~dst ->
    let xy_healthy =
      List.for_all
        (fun l ->
          (not (dead_link l)) && not (List.exists dead_router (Link.routers l)))
        (Xy.links topology ~src ~dst)
    in
    if
      dead_router src || dead_router dst
      || dead_link (Link.Inject src)
      || dead_link (Link.Eject dst)
    then None
    else if xy_healthy then Some (Xy.route topology ~src ~dst)
    else
      let dd = dist.(Topology.index topology dst) in
      if dd.(Topology.index topology src) = max_int then None
      else
        let rec go c acc =
          if Coord.equal c dst then List.rev (c :: acc)
          else
            let dc = dd.(Topology.index topology c) in
            go
              (List.find
                 (fun v ->
                   channel_ok c v && dd.(Topology.index topology v) = dc - 1)
                 (Topology.neighbors topology c))
              (c :: acc)
        in
        Some (go src [])

let any_topology_and_faults_gen =
  let open QCheck2.Gen in
  let* topology = Generators.any_topology_gen in
  let* faults = fault_set_gen topology in
  return (topology, faults)

(* Every pair's route, keyed by the pair and sorted by it, whatever
   order [coords] visits them in. *)
let all_routes t coords =
  List.sort compare
    (List.concat_map
       (fun dst ->
         List.map (fun src -> ((src, dst), Detour.route t ~src ~dst)) coords)
       coords)

let prop_lazy_matches_eager =
  qcheck ~count:100
    "lazy per-destination BFS routes = an eager reference, mesh and torus"
    any_topology_and_faults_gen
    (fun (topology, faults) ->
      let t = Detour.table topology faults in
      let reference = eager_route topology faults in
      let coords = all_coords topology in
      (* Destinations in reverse first, so the memo fills in another
         order than a forward sweep would. *)
      List.for_all
        (fun dst ->
          List.for_all
            (fun src -> Detour.route t ~src ~dst = reference ~src ~dst)
            coords)
        (List.rev coords))

let test_shared_across_domains () =
  (* Two domains route every pair through one fresh table, from
     opposite ends, racing to fill the per-destination memo; both must
     see what a single domain sees on a table of its own. *)
  let topology = Topology.torus ~width:5 ~height:4 in
  let faults =
    Detour.fault_set
      ~routers:[ c 1 1; c 3 2 ]
      ~links:[ Link.channel (c 0 0) (c 1 0); Link.channel (c 2 3) (c 2 0) ]
      ()
  in
  let coords = all_coords topology in
  let expected = all_routes (Detour.table topology faults) coords in
  let shared = Detour.table topology faults in
  let backward =
    Domain.spawn (fun () -> all_routes shared (List.rev coords))
  in
  let forward = all_routes shared coords in
  let backward = Domain.join backward in
  Alcotest.(check bool) "forward domain agrees" true (forward = expected);
  Alcotest.(check bool) "reverse-order domain agrees" true
    (backward = expected)

let suite =
  [
    prop_xy_agreement;
    prop_no_faulty_traversal;
    prop_routes_well_formed;
    Alcotest.test_case "detour around a dead router" `Quick
      test_detour_around_dead_router;
    Alcotest.test_case "healthy XY path verbatim" `Quick
      test_healthy_xy_path_verbatim;
    Alcotest.test_case "dead endpoints and ports" `Quick
      test_dead_endpoints_and_ports;
    Alcotest.test_case "unreachable pairs" `Quick test_unreachable_is_none;
    Alcotest.test_case "blocked links of a dead router" `Quick
      test_blocked_links_of_dead_router;
    Alcotest.test_case "fault-set normalization" `Quick
      test_fault_set_normalizes;
    prop_lazy_matches_eager;
    Alcotest.test_case "one table shared by two domains" `Quick
      test_shared_across_domains;
  ]
