(* Joint order+placement annealing: the differential oracle for
   [Scheduler.resume_onto], the dominance and determinism guarantees
   of the joint walk, and the torus strict-improvement pin. *)

open Util
module Core = Nocplan_core
module Annealing = Core.Annealing
module Scheduler = Core.Scheduler
module Schedule = Core.Schedule
module System = Core.System
module Test_access = Core.Test_access
module Experiments = Core.Experiments

let swappable sys =
  List.filter
    (fun id -> not (System.is_processor_module sys id))
    (System.module_ids sys)

let d695_torus () = Experiments.torus_variant (Experiments.d695_leon ())

(* --- differential oracle ------------------------------------------- *)

(* [resume_onto] after one placement swap must be byte-identical to a
   from-scratch run of the mutated system under the same order — the
   whole correctness argument for evaluating placement moves by
   verified replay.  100 generated systems (meshes and tori, pinned
   and free processors), both inner policies, assorted power budgets. *)
let prop_resume_onto_differential =
  qcheck ~count:100 "resume_onto = run of mutated system"
    QCheck2.Gen.(
      Generators.system_gen_any >>= fun sys ->
      quad (return sys)
        (pair (int_bound 1000) (int_bound 1000))
        bool Generators.power_pct_gen)
    (fun (sys, (na, nb), lookahead, power_pct) ->
      let policy =
        if lookahead then Scheduler.Lookahead else Scheduler.Greedy
      in
      let power_limit =
        Option.map (fun pct -> System.power_limit_of_pct sys ~pct) power_pct
      in
      let reuse = List.length sys.System.processors in
      let cfg = Scheduler.config ~policy ~power_limit ~reuse () in
      match Scheduler.run_traced sys cfg with
      | exception Scheduler.Unschedulable _ -> true
      | trace -> (
          let sw = Array.of_list (swappable sys) in
          let ns = Array.length sw in
          if ns < 2 then true
          else
            let a = sw.(na mod ns) and b = sw.(nb mod ns) in
            if a = b then true
            else
              let sys' = System.swap_tiles sys a b in
              let access =
                Test_access.table_rebuild
                  (Scheduler.trace_access trace)
                  ~system:sys' ~affected:[ a; b ]
              in
              let order = Array.to_list (Scheduler.trace_order trace) in
              let cfg' =
                Scheduler.config ~policy ~power_limit ~order ~reuse ()
              in
              match
                Scheduler.resume_onto trace ~system:sys' ~access
                  ~affected:[ a; b ]
              with
              | exception Scheduler.Unschedulable _ -> (
                  (* The mutated instance may genuinely be infeasible —
                     but then the oracle must agree. *)
                  match Scheduler.run_traced ~access sys' cfg' with
                  | exception Scheduler.Unschedulable _ -> true
                  | _ -> false)
              | resumed ->
                  let fresh = Scheduler.run_traced ~access sys' cfg' in
                  Scheduler.trace_schedule resumed
                  = Scheduler.trace_schedule fresh))

(* --- dominance ----------------------------------------------------- *)

(* Chain 0 of a multi-chain joint run is a pure order annealer on the
   base seed, so the joint result can never be worse than order-only
   annealing under the same seed and per-chain budget. *)
let joint_vs_order_only ?(placement_moves = 0.5) ~iterations ~seed ~reuse sys
    =
  let order_only =
    Annealing.schedule ~iterations ~seed ~chains:1 ~reuse sys
  in
  let joint =
    Annealing.schedule ~iterations ~seed ~chains:2
      ~exchange_period:(iterations + 1) ~placement_moves ~reuse sys
  in
  (order_only, joint)

let prop_joint_never_worse =
  qcheck ~count:8 "joint anneal never worse than order-only"
    Generators.system_gen_any (fun sys ->
      let reuse = List.length sys.System.processors in
      let order_only, joint =
        joint_vs_order_only ~iterations:30 ~seed:0x5AL ~reuse sys
      in
      joint.Annealing.schedule.Schedule.makespan
      <= order_only.Annealing.schedule.Schedule.makespan)

(* The acceptance pin: on d695_leon mapped onto a 4x4 torus, the same
   iteration budget and seed buy a strictly lower makespan once tile
   swaps join the move set — wraparound links make the placement the
   binding dimension. *)
let test_torus_strict_improvement () =
  let sys = d695_torus () in
  let order_only, joint =
    joint_vs_order_only ~placement_moves:0.3 ~iterations:150 ~seed:7L ~reuse:6
      sys
  in
  let om = order_only.Annealing.schedule.Schedule.makespan in
  let jm = joint.Annealing.schedule.Schedule.makespan in
  if jm >= om then
    Alcotest.failf "joint %d not strictly below order-only %d" jm om;
  Alcotest.(check bool) "placement swaps were accepted" true
    (joint.Annealing.placement_accepted > 0);
  (* The winning schedule belongs to the mutated system and must
     satisfy every safety invariant against it. *)
  assert_schedule_invariants joint.Annealing.system joint.Annealing.schedule

(* --- determinism --------------------------------------------------- *)

(* For every chain count the joint anneal is a pure function of its
   parameters: same makespan, same counters, same final placement. *)
let test_deterministic_across_chain_counts () =
  let sys = d695_torus () in
  for chains = 1 to 4 do
    let run () =
      Annealing.schedule ~iterations:40 ~seed:9L ~chains ~exchange_period:10
        ~placement_moves:0.4 ~reuse:6 sys
    in
    let a = run () and b = run () in
    let tag fmt = Printf.sprintf ("chains=%d: " ^^ fmt) chains in
    Alcotest.(check int)
      (tag "makespan")
      a.Annealing.schedule.Schedule.makespan
      b.Annealing.schedule.Schedule.makespan;
    Alcotest.(check int) (tag "evaluations") a.Annealing.evaluations
      b.Annealing.evaluations;
    Alcotest.(check int) (tag "accepted") a.Annealing.accepted
      b.Annealing.accepted;
    Alcotest.(check int)
      (tag "placement evals")
      a.Annealing.placement_evals b.Annealing.placement_evals;
    Alcotest.(check int)
      (tag "placement accepted")
      a.Annealing.placement_accepted b.Annealing.placement_accepted;
    Alcotest.(check int) (tag "exchanges") a.Annealing.exchanges
      b.Annealing.exchanges;
    Alcotest.(check string)
      (tag "final placement")
      (System.fingerprint a.Annealing.system)
      (System.fingerprint b.Annealing.system)
  done

(* --- joint results stay safe --------------------------------------- *)

let prop_joint_results_satisfy_invariants =
  qcheck ~count:10 "joint results satisfy schedule invariants"
    QCheck2.Gen.(pair Generators.system_gen_any Generators.power_pct_gen)
    (fun (sys, power_pct) ->
      let power_limit =
        Option.map (fun pct -> System.power_limit_of_pct sys ~pct) power_pct
      in
      let reuse = List.length sys.System.processors in
      match
        Annealing.schedule ~iterations:30 ~power_limit ~placement_moves:0.5
          ~reuse sys
      with
      | exception Scheduler.Unschedulable _ -> true
      | r ->
          (* Validate against the system the winning schedule belongs
             to — the placement may have moved. *)
          schedule_invariant_errors ~power_limit r.Annealing.system
            r.Annealing.schedule
          = [])

(* --- degenerate cases ---------------------------------------------- *)

let test_improvement_pct_zero_initial () =
  let sys = small_system () in
  let r =
    {
      Annealing.schedule = Schedule.of_entries [];
      system = sys;
      initial_makespan = 0;
      evaluations = 1;
      accepted = 0;
      placement_evals = 0;
      placement_accepted = 0;
      chains = 1;
      exchanges = 0;
    }
  in
  Alcotest.(check (float 0.0)) "0/0 improvement is 0" 0.0
    (Annealing.improvement_pct r)

let test_placement_moves_validated () =
  let sys = small_system () in
  let expect_invalid f =
    match f () with
    | exception Invalid_argument _ -> ()
    | _ -> Alcotest.fail "expected Invalid_argument"
  in
  expect_invalid (fun () ->
      Annealing.schedule ~placement_moves:(-0.1) ~reuse:1 sys);
  expect_invalid (fun () ->
      Annealing.schedule ~placement_moves:1.5 ~reuse:1 sys)

let test_ratio_zero_matches_historical () =
  (* placement_moves = 0 consumes the same generator stream as the
     pre-placement annealer: explicitly passing 0 changes nothing. *)
  let sys = small_system () in
  let a = Annealing.schedule ~iterations:60 ~seed:7L ~reuse:1 sys in
  let b =
    Annealing.schedule ~iterations:60 ~seed:7L ~placement_moves:0.0 ~reuse:1
      sys
  in
  Alcotest.(check int) "same makespan" a.Annealing.schedule.Schedule.makespan
    b.Annealing.schedule.Schedule.makespan;
  Alcotest.(check int) "same evaluations" a.Annealing.evaluations
    b.Annealing.evaluations;
  Alcotest.(check int) "same accepted" a.Annealing.accepted
    b.Annealing.accepted

(* --- borrowed evaluation caches -------------------------------------- *)

(* A search may borrow an evaluation cache that another search of the
   same instance filled (the serve path shares one per instance).  Its
   result must be exactly the cold run's: the cache changes how fast
   orders are evaluated, never which. *)
let same_result a b =
  a.Annealing.initial_makespan = b.Annealing.initial_makespan
  && a.Annealing.evaluations = b.Annealing.evaluations
  && a.Annealing.accepted = b.Annealing.accepted
  && a.Annealing.placement_evals = b.Annealing.placement_evals
  && a.Annealing.placement_accepted = b.Annealing.placement_accepted
  && String.equal
       (Core.Export.schedule_json a.Annealing.system a.Annealing.schedule)
       (Core.Export.schedule_json b.Annealing.system b.Annealing.schedule)

let prop_borrowed_cache_invisible =
  qcheck ~count:40 "borrowed eval cache never changes the result"
    QCheck2.Gen.(
      Generators.system_gen_any >>= fun sys ->
      triple (return sys) bool (oneofl [ 0.0; 0.4 ]))
    (fun (sys, lookahead, placement_moves) ->
      let policy =
        if lookahead then Scheduler.Lookahead else Scheduler.Greedy
      in
      let reuse = List.length sys.System.processors in
      let cache =
        Core.Eval_cache.create sys (Scheduler.config ~policy ~reuse ())
      in
      let run ?eval_cache seed =
        Annealing.schedule ~policy ~iterations:30 ~seed ~placement_moves
          ?eval_cache ~reuse sys
      in
      match run ~eval_cache:cache 1L with
      | exception Scheduler.Unschedulable _ -> true
      | _ -> same_result (run 2L) (run ~eval_cache:cache 2L))

let test_borrowed_cache_serves_repeat () =
  (* A repeat of a short search through the cache the first run left
     filled finds its evaluations there as exact hits — the speed-up
     the serve path shares caches for — and still returns exactly the
     cold answer. *)
  let sys = Experiments.d695_leon () in
  let run ?eval_cache () =
    Annealing.schedule ~iterations:3 ~seed:5L ?eval_cache ~reuse:2 sys
  in
  let cache = Core.Eval_cache.create sys (Scheduler.config ~reuse:2 ()) in
  ignore (run ~eval_cache:cache ());
  let exact_hits () =
    (Core.Eval_cache.stats cache).Core.Eval_cache.exact_hits
  in
  let before = exact_hits () in
  let repeat = run ~eval_cache:cache () in
  (* [evaluations] counts the shared initial run, made outside the
     cache; every other evaluation repeats one the first run made. *)
  Alcotest.(check bool) "the repeat evaluated through the cache" true
    (repeat.Annealing.evaluations > 1);
  Alcotest.(check int) "every repeated evaluation is an exact hit"
    (repeat.Annealing.evaluations - 1) (exact_hits () - before);
  Alcotest.(check bool) "same result as a cold search" true
    (same_result (run ()) repeat)

let test_swap_tiles_rejects_pinned () =
  let sys = d695_torus () in
  let proc =
    List.find (fun id -> System.is_processor_module sys id)
      (System.module_ids sys)
  in
  let free = List.hd (swappable sys) in
  match System.swap_tiles sys proc free with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "swapping a pinned processor tile was accepted"

let suite =
  [
    prop_resume_onto_differential;
    prop_joint_never_worse;
    Alcotest.test_case "torus strict improvement" `Slow
      test_torus_strict_improvement;
    Alcotest.test_case "deterministic for chains 1..4" `Slow
      test_deterministic_across_chain_counts;
    prop_joint_results_satisfy_invariants;
    Alcotest.test_case "improvement_pct of empty system" `Quick
      test_improvement_pct_zero_initial;
    Alcotest.test_case "placement_moves validated" `Quick
      test_placement_moves_validated;
    Alcotest.test_case "ratio 0 matches historical annealer" `Quick
      test_ratio_zero_matches_historical;
    prop_borrowed_cache_invisible;
    Alcotest.test_case "borrowed cache serves a repeated search" `Quick
      test_borrowed_cache_serves_repeat;
    Alcotest.test_case "pinned processors stay pinned" `Quick
      test_swap_tiles_rejects_pinned;
  ]
