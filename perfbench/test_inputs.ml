(* The default seed always yields the same corpus and request lines:
   the recorded digests are what later runs are checked against. *)

open Perfbench

let () =
  let seed = Inputs.default_seed in
  let mismatch workload got =
    match Inputs.recorded_digest ~workload ~seed with
    | Some expected when expected = got -> false
    | recorded ->
        Printf.eprintf "%s seed %d: digest %s, recorded %s\n" workload seed got
          (Option.value ~default:"none" recorded);
        true
  in
  let bad =
    List.filter Fun.id
      [
        mismatch "verify-corpus" (Inputs.verify_digest ~seed);
        mismatch "serve-shared" (Inputs.shared_digest ~seed);
        mismatch "serve-cold" (Inputs.cold_digest ~seed);
      ]
  in
  if bad <> [] then exit 1
