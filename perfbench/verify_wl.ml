(* verify-corpus: the checked-in testplan over a seeded synthetic
   corpus on one domain — what [nocplan verify --jobs 1] does, one
   system at a time so each system's latency is a sample.  Every pass
   runs the same systems ([Inputs.stratified]), so the work timed does
   not depend on how fast the program is. *)

open Measure
module Corpus = Nocplan_corpus.Corpus
module Runner = Nocplan_corpus.Runner
module Suites = Nocplan_corpus.Suites
module Testplan = Nocplan_corpus.Testplan

let testplan_path = "test/testplan.json"

let load_plan () =
  match Testplan.load testplan_path with
  | Error msg -> failwith (testplan_path ^ ": " ^ msg)
  | Ok plan -> (
      match Testplan.lint ~suites:(Suites.names ()) plan with
      | [] -> plan
      | msgs -> failwith (String.concat "; " msgs))

(* Per-testpoint counts summed over single-item reports. *)
let merge reports =
  match reports with
  | [] -> invalid_arg "Verify_wl.merge: no reports"
  | first :: _ ->
      let points =
        List.map
          (fun (p : Runner.point) ->
            let mine =
              List.concat_map
                (fun (r : Runner.report) ->
                  List.filter
                    (fun (q : Runner.point) -> q.Runner.testpoint = p.Runner.testpoint)
                    r.Runner.points)
                reports
            in
            let total f = List.fold_left (fun acc q -> acc + f q) 0 mine in
            {
              p with
              Runner.pass = total (fun q -> q.Runner.pass);
              fail = total (fun q -> q.Runner.fail);
              skip = total (fun q -> q.Runner.skip);
              failures = List.concat_map (fun q -> q.Runner.failures) mine;
            })
          first.Runner.points
      in
      { first with Runner.corpus = List.length reports; points }

let failures (r : Runner.report) =
  List.concat_map
    (fun (p : Runner.point) ->
      List.map
        (fun (item, msg) -> Printf.sprintf "%s/%s: %s" p.Runner.testpoint item msg)
        p.Runner.failures)
    r.Runner.points

let setup ~seed =
  let plan = load_plan () in
  let items, gen_s =
    timed (fun () ->
        Corpus.generate ~seed:(Inputs.corpus_seed seed) ~count:Inputs.corpus_count)
  in
  let timed_items = Inputs.stratified items in
  (* Warm-up: the first system through the whole plan, untimed. *)
  ignore (Runner.run ~testplan:plan [ timed_items.(0) ]);
  (plan, items, timed_items, gen_s)

(* One pass over the slice through [Runner.run], a system at a time:
   each system's report, time and allocation. *)
let runner_pass ~cal ~plan items =
  Array.to_list
    (Array.map
       (fun item ->
         let w0 = alloc_words () in
         let report, dt = timed (fun () -> Runner.run ~clock:now ~testplan:plan [ item ]) in
         let words = alloc_words () -. w0 in
         Calibration.tick cal;
         (report, dt *. 1e3, words))
       items)

(* Per-suite time of each traced pass, and allocation summed over
   them. *)
type suite_totals = {
  mutable pass_ms : (string, float) Hashtbl.t list;
  alloc : (string, float) Hashtbl.t;
  mutable suite_problems : string list;
}

(* One pass over the slice calling each suite directly, timed on its
   own, under a trace collector streaming into [spans]. *)
let suite_pass ~spans totals items =
  let add tbl k v =
    Hashtbl.replace tbl k (v +. Option.value ~default:0.0 (Hashtbl.find_opt tbl k))
  in
  let ms = Hashtbl.create 8 in
  totals.pass_ms <- ms :: totals.pass_ms;
  Spans.collect spans (fun () ->
      Array.iter
        (fun (item : Corpus.item) ->
          List.iter
            (fun (s : Suites.suite) ->
              let w0 = alloc_words () in
              let outcome, dt =
                timed (fun () ->
                    try s.Suites.check item with e -> Suites.Fail (Printexc.to_string e))
              in
              add totals.alloc s.Suites.name (alloc_words () -. w0);
              add ms s.Suites.name (dt *. 1e3);
              match outcome with
              | Suites.Fail msg ->
                  totals.suite_problems <-
                    Printf.sprintf "%s/%s: %s" s.Suites.name item.Corpus.name msg
                    :: totals.suite_problems
              | Suites.Pass | Suites.Skip _ -> ())
            Suites.all)
        items)

let run ~seed ~seconds ~trace =
  let setups = List.init 3 (fun _ -> timed (fun () -> setup ~seed)) in
  let setup_s = median (List.map snd setups) in
  let item_ms =
    median
      (List.map (fun ((_, _, _, g), _) -> g *. 1e3 /. float_of_int Inputs.corpus_count) setups)
  in
  let plan, _, items, _ = fst (List.hd setups) in
  let digests =
    List.map (fun ((_, _, slice, _), _) -> Inputs.corpus_digest slice) setups
  in
  let digest = List.hd digests in
  let digest_problems =
    (if List.exists (( <> ) digest) digests then
       [ "corpus generation is not deterministic" ]
     else [])
    @
    match Inputs.recorded_digest ~workload:"verify-corpus" ~seed with
    | Some d when d <> digest ->
        [ Printf.sprintf "corpus digest %s, recorded %s" digest d ]
    | Some _ | None -> []
  in
  (* Passes over the slice until [seconds] have gone, at least one.  A
     traced run follows each pass with a traced one, so both see the
     same state of the host. *)
  let spans = Spans.create () in
  let totals = { pass_ms = []; alloc = Hashtbl.create 8; suite_problems = [] } in
  let runs = ref [] and walls = ref [] and traced_walls = ref [] in
  let cal = Calibration.create () in
  let t0 = now () in
  let rec loop () =
    let r = runner_pass ~cal ~plan items in
    let wall = sum (List.map (fun (_, ms, _) -> ms /. 1e3) r) in
    runs := List.rev_append r !runs;
    walls := wall :: !walls;
    if trace then
      traced_walls := snd (timed (fun () -> suite_pass ~spans totals items)) :: !traced_walls;
    if now () -. t0 < seconds then loop ()
  in
  loop ();
  let runs = List.rev !runs in
  let n = List.length runs in
  let reports = List.map (fun (r, _, _) -> r) runs in
  let failed = List.length (List.filter (fun r -> failures r <> []) reports) in
  let merged = merge reports in
  (* Every pass does the same work; see [Measure.steady]. *)
  let ms_per_system =
    Calibration.scale cal (steady !walls *. 1e3 /. float_of_int Inputs.verify_slice)
  in
  (* Each system's median time over the passes; the latency quantiles
     are over systems. *)
  let lat =
    List.init Inputs.verify_slice (fun i ->
        median (List.filteri (fun j _ -> j mod Inputs.verify_slice = i) (List.map (fun (_, ms, _) -> ms) runs)))
  in
  let traced_layers =
    if not trace then []
    else
      (* Suite times over the traced passes as [ms_per_system] is over
         the untraced ones, so that they sum to it; the traced passes
         ran as many systems as the untraced ones. *)
      let get tbl name = Option.value ~default:0.0 (Hashtbl.find_opt tbl name) in
      List.concat_map
        (fun (s : Suites.suite) ->
          let name = s.Suites.name in
          [
            ( "suite." ^ name ^ "_ms",
              steady (List.map (fun tbl -> get tbl name) totals.pass_ms)
              /. float_of_int Inputs.verify_slice );
            ("suite." ^ name ^ "_alloc_words", per (get totals.alloc name) n);
          ])
        Suites.all
      @ Spans.core_layers spans ~systems:n
      @ [
          ( "obs.trace_overhead_pct",
            100.0 *. ((steady !traced_walls /. steady !walls) -. 1.0) );
        ]
  in
  let problems =
    digest_problems @ failures merged @ List.rev totals.suite_problems
    @ if Runner.ok merged then [] else [ "Runner.ok is false over the run" ]
  in
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
        ("corpus.item_ms", item_ms);
        ("host.calibration_ms", Calibration.ms cal);
        ("core.alloc_words_per_system", sum (List.map (fun (_, _, w) -> w) runs) /. float_of_int n);
      ]
      @ traced_layers;
  }
