(* perfbench: one workload per process, on one domain.

     perfbench --workload W --seed N --seconds S --trace 0|1 [--corrupt KIND]

   Sets the workload up [setups] times (median = setup_s), runs one
   untimed warm-up pass, then timed passes until [--seconds] have gone
   by (median = solve_s), checking every pass's outputs untimed. The
   last stdout line is the JSON result. With [--trace 1] the counter
   plane and spans are on, and the result carries the per-layer
   metrics instead; see README.md. *)

module W = Workloads
module Span = Wlan_obs.Span
module Counters = Wlan_obs.Counters

(* Set-ups per run (their median is setup_s) and the fewest timed
   passes per run. *)
let setups = 3
let min_passes = 3

(* A traced run fails an operation when the layers' self-times leave
   more than this share of the set-up or pass time unaccounted. *)
let reconcile_tolerance = 0.02

(* serve-city keeps going until at least ten settles lie beyond p99 *)
let min_latency_samples = 1000

let usage () =
  prerr_endline
    "usage: perfbench --workload <city-plan|city-shadowed|serve-city|paper-sweep> \
     --seed <n> --seconds <n> --trace <0|1> [--corrupt <kind>]";
  exit 2

let args () =
  let workload = ref None and seed = ref None and seconds = ref None in
  let trace = ref None in
  let rec go = function
    | [] -> ()
    | "--workload" :: w :: rest -> workload := Some w; go rest
    | "--seed" :: n :: rest -> seed := int_of_string_opt n; go rest
    | "--seconds" :: n :: rest -> seconds := float_of_string_opt n; go rest
    | "--trace" :: ("0" | "1" as t) :: rest -> trace := Some (t = "1"); go rest
    | "--corrupt" :: k :: rest ->
        if not (List.mem k [ "out-of-range"; "over-budget"; "perturb-load"; "drop-delta" ])
        then usage ();
        W.corrupt := Some k;
        go rest
    | _ -> usage ()
  in
  go (List.tl (Array.to_list Sys.argv));
  match (!workload, !seed, !seconds, !trace) with
  | Some w, Some seed, Some seconds, Some trace when seconds > 0. -> (
      match List.assoc_opt w W.all with
      | Some setup -> (w, setup, seed, seconds, trace)
      | None -> usage ())
  | _ -> usage ()

let median l =
  let a = Array.of_list l in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then nan
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

(* nearest rank *)
let percentile p l =
  let a = Array.of_list l in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then nan
  else a.(Int.min (n - 1) (Int.max 0 (int_of_float (Float.ceil (p *. float_of_int n)) - 1)))


let peak_rss_mb () =
  let ic = open_in "/proc/self/status" in
  let rec go () =
    match input_line ic with
    | line when String.length line > 6 && String.sub line 0 6 = "VmHWM:" ->
        Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %f kB" (fun kb ->
            kb /. 1024.)
    | _ -> go ()
    | exception End_of_file -> nan
  in
  Fun.protect ~finally:(fun () -> close_in ic) go

(* {1 Span bookkeeping} *)

(* Per-activation self-times of the layer spans directly under the
   root span [root] ("setup" or "pass"). *)
let layer_times root =
  List.concat_map
    (fun (n : Span.node) ->
      if n.Span.name <> root then []
      else
        List.map
          (fun (c : Span.node) ->
            let child = List.fold_left (fun acc (g : Span.node) -> acc +. g.Span.total_s) 0. c.Span.children in
            (c.Span.name, (c.Span.total_s -. child) /. float_of_int n.Span.count))
          n.Span.children)
    (Span.tree ())

let json_metric (name, value, unit) =
  Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" name
    (if Float.is_integer value && Float.abs value < 1e15 then Printf.sprintf "%.0f" value
     else Printf.sprintf "%.17g" value)
    unit

let result ~metrics =
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    (!W.failed = 0) !W.attempted !W.failed
    (String.concat ", " (List.map json_metric metrics))

(* The busy-time layers of the per-layer report, by span name. *)
let busy_layers =
  [
    ("scenario_gen", "scenario_gen.busy_s");
    ("compile", "compile.busy_s");
    ("shard", "shard.busy_s");
    ("ssa", "ssa.busy_s");
    ("mla", "mla.busy_s");
    ("mnu", "mnu.busy_s");
    ("bla", "bla.busy_s");
    ("distributed", "distributed.busy_s");
    ("server.handle", "server.handle_s");
    ("protocol.parse", "protocol.parse_s");
    ("protocol.render", "protocol.render_s");
  ]

let counter_metrics =
  [
    "sparse.builds"; "sparse.candidate_list_len"; "sparse.grid_cells_probed";
    "shard.components"; "mcg.candidate_evals"; "mcg.heap_pops"; "mcg.bound_skips";
    "mcg.selections"; "scg.grid_probes"; "arena.hits"; "arena.grows";
    "distributed.rounds"; "distributed.moves"; "distributed.decisions";
    "distributed.stay_memo_hits"; "tracker.hypotheticals"; "tracker.min_recomputes";
    "online.settles"; "online.settle_rounds"; "online.settle_moves";
    "online.dirty_scanned"; "online.dirty_peak"; "serve.events"; "serve.batches";
    "serve.forced_settles"; "serve.deltas"; "serve.queue_peak";
  ]

let ratio a b = if b = 0 then 0. else float_of_int a /. float_of_int b

let () =
  let name, setup, seed, seconds, trace = args () in
  if trace then begin
    Counters.set_enabled true;
    Span.set_clock (Some Clock.now)
  end;
  (* set-up, [setups] times; the last instance is the one measured *)
  let set_up () = Calib.measure (fun () -> Span.with_span "setup" (fun () -> setup ~seed)) in
  (* each earlier instance is dropped before the next set-up starts, so
     peak_rss_mb counts one instance's state, not [setups] of them *)
  let earlier =
    List.init (setups - 1) (fun _ ->
        let (_ : W.instance), dt, kernel = set_up () in
        Gc.compact ();
        (dt, kernel))
  in
  Counters.reset ();
  let inst, dt, kernel = set_up () in
  let setup_counters = Counters.snapshot () in
  let runs = earlier @ [ (dt, kernel) ] in
  let setup_times = List.map fst runs in
  let setup_norm = List.map (fun (dt, kernel) -> Calib.normalize ~dt ~kernel) runs in
  let setup_layers = layer_times "setup" in
  let log_bytes_setup = inst.W.log_bytes () in
  Span.reset ();
  (* untimed warm-up pass *)
  inst.W.prepare 0;
  inst.W.pass 0;
  inst.W.check 0;
  Span.reset ();
  (* a pass's raw and normalized times *)
  let pass k =
    inst.W.prepare k;
    Gc.full_major ();
    let (), dt, kernel =
      Calib.measure (fun () -> Span.with_span "pass" (fun () -> inst.W.pass k))
    in
    inst.W.check k;
    (dt, Calib.normalize ~dt ~kernel)
  in
  let enough n t0 =
    n >= min_passes
    && Clock.now () -. t0 >= seconds
    && (name <> "serve-city" || List.length (inst.W.latencies ()) >= min_latency_samples)
  in
  let rec passes k t0 acc =
    if enough (List.length acc) t0 then (k, List.rev acc) else passes (k + 1) t0 (pass k :: acc)
  in
  if not trace then begin
    let _, times = passes 1 (Clock.now ()) [] in
    let lat = inst.W.latencies () in
    if lat <> [] then
      Printf.printf "settle latency: p50 %.4f ms, p99 %.4f ms over %d settles\n"
        (1e3 *. percentile 0.5 lat) (1e3 *. percentile 0.99 lat) (List.length lat);
    let show l = String.concat " " (List.map (Printf.sprintf "%.4f") l) in
    Printf.printf "%s seed %d: raw set-ups [%s] s, raw passes [%s] s, raw medians %.4f %.4f\n"
      name seed (show setup_times) (show (List.map fst times))
      (median setup_times) (median (List.map fst times));
    result
      ~metrics:
        [
          ("setup_s", median setup_norm, "s");
          ("solve_s", median (List.map snd times), "s");
          ("peak_rss_mb", peak_rss_mb (), "MiB");
        ]
  end
  else begin
    (* first timed pass: counters and GC words; they repeat run to run *)
    Counters.reset ();
    let gc0 = Gc.quick_stat () in
    let log0 = inst.W.log_bytes () in
    let t1 = pass 1 in
    let gc1 = Gc.quick_stat () in
    let log_bytes_pass = inst.W.log_bytes () - log0 in
    let pass_counters = Counters.snapshot () in
    let k, traced = passes 2 (Clock.now ()) [ t1 ] in
    let pass_layers = layer_times "pass" in
    (* the same number of passes untraced: the tracing overhead *)
    Counters.set_enabled false;
    Span.set_clock None;
    let lat0 = List.length (inst.W.latencies ()) in
    let untraced = List.init (List.length traced) (fun i -> pass (k + i)) in
    (* latencies are kept newest first *)
    let lat =
      let all = inst.W.latencies () in
      List.filteri (fun i _ -> i < List.length all - lat0) all
    in
    let count n =
      let get l = Option.value ~default:0 (List.assoc_opt n l) in
      get setup_counters + get pass_counters
    in
    let mean l = List.fold_left ( +. ) 0. l /. float_of_int (List.length l) in
    let setup_mean = mean setup_times and traced_mean = mean (List.map fst traced) in
    let traced = List.map snd traced and untraced = List.map snd untraced in
    let busy span =
      let get l = Option.value ~default:0. (List.assoc_opt span l) in
      (get setup_layers, get pass_layers)
    in
    let sum l = List.fold_left (fun acc (_, t) -> acc +. t) 0. l in
    (* report *)
    Printf.printf "== %s seed %d: per-layer self-time (s per set-up / per pass)\n" name seed;
    List.iter
      (fun span ->
        let s, p = busy span in
        Printf.printf "  %-18s %10.4f %10.4f\n" span s p)
      (List.sort_uniq compare (List.map fst setup_layers @ List.map fst pass_layers));
    Printf.printf "  %-18s %10.4f %10.4f\n" "layers, summed" (sum setup_layers) (sum pass_layers);
    Printf.printf "  %-18s %10.4f %10.4f\n" "measured (mean)" setup_mean traced_mean;
    let unaccounted_setup = (setup_mean -. sum setup_layers) /. setup_mean
    and unaccounted_pass = (traced_mean -. sum pass_layers) /. traced_mean in
    Printf.printf "  %-18s %9.2f%% %9.2f%%\n" "unaccounted" (100. *. unaccounted_setup)
      (100. *. unaccounted_pass);
    W.record ~what:"reconciliation"
      (if Float.abs unaccounted_setup <= reconcile_tolerance
          && Float.abs unaccounted_pass <= reconcile_tolerance
       then Ok ()
       else
         Checks.fail "layers leave %.2f%% of set-up and %.2f%% of pass time unaccounted"
           (100. *. unaccounted_setup) (100. *. unaccounted_pass));
    Printf.printf "  tracing overhead: solve_s traced %.4f, untraced %.4f (%+.2f%%)\n"
      (median traced) (median untraced)
      (100. *. (median traced -. median untraced) /. median untraced);
    let counters = List.map (fun n -> (n, float_of_int (count n), "count")) counter_metrics in
    let ratios =
      [
        ( "distributed.stay_memo_hit_ratio",
          ratio (count "distributed.stay_memo_hits") (count "distributed.decisions"),
          "ratio" );
        ( "mcg.bound_skip_ratio",
          ratio (count "mcg.bound_skips")
            (count "mcg.bound_skips" + count "mcg.candidate_evals"),
          "ratio" );
        ( "online.dirty_per_event",
          ratio (count "online.dirty_scanned") (count "serve.events"),
          "ratio" );
      ]
    in
    let gc =
      [
        ("gc.minor_words", gc1.Gc.minor_words -. gc0.Gc.minor_words, "words");
        ("gc.promoted_words", gc1.Gc.promoted_words -. gc0.Gc.promoted_words, "words");
        ( "gc.major_collections",
          float_of_int (gc1.Gc.major_collections - gc0.Gc.major_collections),
          "count" );
      ]
    in
    let serve =
      [
        ("replay_log.bytes", float_of_int (log_bytes_setup + log_bytes_pass), "bytes");
        ("serve.settle_p50_ms", (if lat = [] then 0. else 1e3 *. percentile 0.5 lat), "ms");
        ("serve.settle_p99_ms", (if lat = [] then 0. else 1e3 *. percentile 0.99 lat), "ms");
        ("serve.settle_samples", float_of_int (List.length lat), "count");
        ("trace.overhead_s", median traced -. median untraced, "s");
      ]
    in
    Printf.printf "== %s seed %d: counters (one set-up + first timed pass) and ratios\n" name seed;
    List.iter
      (fun (n, v, _) -> Printf.printf "  %-34s %16.6g\n" n v)
      (counters @ ratios @ gc @ serve);
    let busy_metrics =
      List.map
        (fun (span, metric) ->
          let s, p = busy span in
          (metric, s +. p, "s"))
        busy_layers
    in
    result ~metrics:(busy_metrics @ counters @ ratios @ gc @ serve)
  end
