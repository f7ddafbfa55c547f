(* The four workloads. Each [setup] does the timed set-up work and
   returns an instance whose [pass k] is the timed work of pass [k];
   [prepare] and [check] run untimed around it. Every call into a layer
   of the library goes through [layer], which opens a span named after
   the layer when tracing is on and costs one branch when it is off. *)

open Wlan_model
module C = Mcast_core
module S = Mcast_serve

let layer = Wlan_obs.Span.with_span

(* Operation accounting: one solver call or one frame is one operation;
   it fails when it raises, is refused, or fails a check. *)
let attempted = ref 0
let failed = ref 0

let record ~what = function
  | Ok () -> incr attempted
  | Error msg ->
      incr attempted;
      if !failed = 0 then Printf.eprintf "perfbench: %s failed: %s\n%!" what msg;
      incr failed

(* Self-test corruptions, applied to outputs just before they are
   checked: [out-of-range], [over-budget], [perturb-load], [drop-delta]. *)
let corrupt : string option ref = ref None

type instance = {
  prepare : int -> unit;
  pass : int -> unit;
  check : int -> unit;
  latencies : unit -> float list;
      (** per-frame latencies (s) of the frames that closed a batch *)
  log_bytes : unit -> int;  (** size of the replay log so far *)
}

let guard f = match f () with v -> Ok v | exception e -> Error (Printexc.to_string e)

(* {1 Solver outputs} *)

type out = {
  assoc : int array;
  reported : float array option;  (** the program's per-AP loads *)
  converged : bool option;
}

let of_solution (s : C.Solution.t) =
  { assoc = s.C.Solution.assoc; reported = Some s.C.Solution.ap_loads; converged = None }

let of_outcome ((s : C.Solution.t), (o : C.Distributed.outcome)) =
  { (of_solution s) with converged = Some o.C.Distributed.converged }

let of_shard (r : C.Shard.result) =
  { assoc = r.C.Shard.assoc; reported = None; converged = Some r.C.Shard.converged }

let of_solution_opt = function
  | Some s -> of_solution s
  | None -> failwith "no feasible B*"

type op = {
  what : string;
  lk : Checks.links Lazy.t;
  expect : Checks.expect;
  result : (out, string) result;
}

let run_op ops what lk expect ~name f =
  ops := { what; lk; expect; result = guard (fun () -> layer name f) } :: !ops

(* One corruption per checked batch of outputs, on the first output it
   applies to. *)
let corrupt_outputs (ops : op list) =
  let served a = Array.exists (fun x -> x <> Association.none) a in
  let rec apply f = function
    | [] -> []
    | o :: rest -> (
        match o.result with
        | Ok out -> (
            match f (Lazy.force o.lk) o.expect out with
            | Some out -> { o with result = Ok out } :: rest
            | None -> o :: apply f rest)
        | Error _ -> o :: apply f rest)
  in
  let far lk u =
    let n = lk.Checks.n_aps in
    let rec go a = if Checks.rate lk ~ap:a ~user:u > 0. then go ((a + 1) mod n) else a in
    go ((Array.fold_left Int.max 0 lk.Checks.cands.(u) + 1) mod n)
  in
  match !corrupt with
  | Some "out-of-range" ->
      apply
        (fun lk _ out ->
          if not (served out.assoc) then None
          else begin
            let a = Array.copy out.assoc in
            let u = ref 0 in
            while a.(!u) = Association.none do incr u done;
            a.(!u) <- far lk !u;
            Some { out with assoc = a }
          end)
        ops
  | Some "over-budget" ->
      apply
        (fun lk e out ->
          if not e.Checks.budget then None
          else begin
            (* a user joining an AP over a link too slow for its budget *)
            let found = ref None in
            Array.iteri
              (fun u cs ->
                Array.iteri
                  (fun i b ->
                    let sr = lk.Checks.session_rate.(lk.Checks.user_session.(u)) in
                    let r = lk.Checks.rates.(u).(i) in
                    if !found = None && r > 0. && sr /. r > lk.Checks.budget.(b)
                    then found := Some (u, b))
                  cs)
              lk.Checks.cands;
            match !found with
            | None -> None
            | Some (u, b) ->
                let a = Array.copy out.assoc in
                a.(u) <- b;
                let reported = Option.map (fun _ -> Checks.loads lk a) out.reported in
                Some { out with assoc = a; reported }
          end)
        ops
  | Some "perturb-load" ->
      apply
        (fun _ _ out ->
          match out.reported with
          | Some r when Array.length r > 0 ->
              let r = Array.copy r in
              r.(0) <- r.(0) +. 1e-6;
              Some { out with reported = Some r }
          | _ -> None)
        ops
  | _ -> ops

let check_ops ops =
  List.iter
    (fun o ->
      record ~what:o.what
        (match o.result with
        | Error e -> Error e
        | Ok out ->
            Checks.solution (Lazy.force o.lk) o.expect ?reported:out.reported
              ?converged:out.converged out.assoc))
    (corrupt_outputs (List.rev ops))

let solver_instance ~pass =
  let ops = ref [] in
  {
    prepare = (fun _ -> ops := []);
    pass = (fun _ -> pass ops);
    check = (fun _ -> check_ops !ops);
    latencies = (fun () -> []);
    log_bytes = (fun () -> 0);
  }

(* MNU runs at a budget that binds: a 1 Mb/s session costs more than
   0.05 of airtime below 24 Mb/s, so far users cannot all be admitted. *)
let mnu_budget = 0.05

(* {1 city-plan and city-shadowed} *)

let city_setup ~seed (cfg : Scenario_gen.city_config) =
  let sc = layer "scenario_gen" (fun () -> Scenario_gen.city ~seed cfg) in
  let p, p_mnu =
    layer "compile" (fun () ->
        let p = Scenario.to_problem_sparse sc in
        (p, Problem.with_budget p mnu_budget))
  in
  let plan =
    layer "shard" (fun () ->
        C.Shard.plan_geometric ~ap_pos:sc.Scenario.ap_pos
          ~interaction_radius:(2. *. Scenario.range sc)
          p)
  in
  (sc, p, p_mnu, plan)

let city_plan ~seed =
  let sc, p, p_mnu, plan = city_setup ~seed Scenario_gen.city_default in
  let lk = lazy (Checks.of_table1 sc ~budget:(Problem.budget p)) in
  let lk_mnu = lazy (Checks.with_budget (Lazy.force lk) mnu_budget) in
  let e = Checks.expect in
  solver_instance ~pass:(fun ops ->
      let op = run_op ops in
      op "ssa" lk (e ~budget:true ()) ~name:"ssa" (fun () ->
          of_solution (C.Ssa.run p));
      op "mla" lk (e ~cover:true ()) ~name:"mla" (fun () ->
          of_solution (C.Mla.run p));
      op "mnu-sharded" lk_mnu (e ~budget:true ()) ~name:"mnu" (fun () ->
          of_solution (C.Shard.solve_mnu ~plan p_mnu));
      op "bla-sharded" lk (e ~cover:true ~bla_bound:true ()) ~name:"bla"
        (fun () -> of_solution_opt (C.Shard.solve_bla ~plan p));
      op "mnu-distributed" lk_mnu (e ~budget:true ~nash:true ())
        ~name:"distributed" (fun () ->
          of_shard
            (C.Shard.solve ~plan ~objective:C.Distributed.Min_total_load p_mnu));
      op "bla-distributed" lk (e ~cover:true ~bla_bound:true ())
        ~name:"distributed" (fun () ->
          of_shard
            (C.Shard.solve ~plan ~objective:C.Distributed.Min_load_vector p)))

(* The Table-1 city under log-distance path loss with seeded 4 dB
   shadowing: the +3σ range margin couples every district. *)
let shadowed_config ~seed =
  let d = Scenario_gen.city_default in
  {
    d with
    Scenario_gen.district =
      {
        d.Scenario_gen.district with
        Scenario_gen.rate_model =
          Some
            (Rate_model.log_distance
               ~shadowing:{ Rate_model.sigma_db = 4.; seed } ());
      };
  }

let city_shadowed ~seed =
  let sc, p, p_mnu, plan = city_setup ~seed (shadowed_config ~seed) in
  let lk = lazy (Checks.of_model sc p ~budget:(Problem.budget p)) in
  let lk_mnu = lazy (Checks.with_budget (Lazy.force lk) mnu_budget) in
  let e = Checks.expect in
  solver_instance ~pass:(fun ops ->
      let op = run_op ops in
      op "mnu-distributed" lk_mnu (e ~budget:true ~nash:true ())
        ~name:"distributed" (fun () ->
          of_shard
            (C.Shard.solve ~plan ~objective:C.Distributed.Min_total_load p_mnu));
      op "bla-distributed" lk (e ~cover:true ~bla_bound:true ())
        ~name:"distributed" (fun () ->
          of_shard
            (C.Shard.solve ~plan ~objective:C.Distributed.Min_load_vector p)))

(* {1 paper-sweep} *)

let user_sweep = [ 50; 100; 150; 200; 250; 300; 350; 400 ]
let scenarios_per_point = 4

let paper_sweep ~seed =
  let instances =
    List.concat_map
      (fun n_users ->
        let cfg = { Scenario_gen.paper_default with n_users } in
        List.init scenarios_per_point (fun i ->
            let rng = Scenario_gen.scenario_rng ~seed:(seed + n_users) i in
            let sc = layer "scenario_gen" (fun () -> Scenario_gen.generate ~rng cfg) in
            let p, p_mnu =
              layer "compile" (fun () ->
                  let p = Scenario.to_problem sc in
                  (p, Problem.with_budget p mnu_budget))
            in
            (sc, p, p_mnu)))
      user_sweep
  in
  let links =
    List.map
      (fun (sc, p, _) ->
        let lk = lazy (Checks.of_table1 sc ~budget:(Problem.budget p)) in
        (lk, lazy (Checks.with_budget (Lazy.force lk) mnu_budget)))
      instances
  in
  let e = Checks.expect in
  solver_instance ~pass:(fun ops ->
      List.iter2
        (fun (_, p, p_mnu) (lk, lk_mnu) ->
          let op = run_op ops in
          op "MLA-centralized" lk (e ~cover:true ()) ~name:"mla" (fun () ->
              of_solution (C.Mla.run p));
          op "MLA-distributed" lk (e ~cover:true ~nash:true ())
            ~name:"distributed" (fun () -> of_outcome (C.Distributed.mla p));
          op "BLA-centralized" lk (e ~cover:true ~bla_bound:true ()) ~name:"bla"
            (fun () -> of_solution (C.Bla.run_exn ~mode:`Hard p));
          op "BLA-distributed" lk (e ~cover:true ~bla_bound:true ())
            ~name:"distributed" (fun () -> of_outcome (C.Distributed.bla p));
          op "MNU-centralized" lk_mnu (e ~budget:true ()) ~name:"mnu" (fun () ->
              of_solution (C.Mnu.run p_mnu));
          op "MNU-distributed" lk_mnu (e ~budget:true ~nash:true ())
            ~name:"distributed" (fun () -> of_outcome (C.Distributed.mnu p_mnu));
          op "SSA" lk (e ~budget:true ()) ~name:"ssa" (fun () ->
              of_solution (C.Ssa.run p)))
        instances links)

(* {1 serve-city} *)

let serve_config =
  {
    S.Replay_log.objective = C.Distributed.Min_total_load;
    obj_label = "mnu";
    mode = `Sequential;
    max_rounds = 200;
    queue_limit = 256;
    tiers = Rate_table.rates Rate_table.default;
    scenario_digest = None;
  }

(* Share of the users that arrive in the set-up batch; the rest start
   absent so the churn has arrivals to make. *)
let populate_share = 0.9

(* One client round trip: parse the frame, hand it to the server and
   render the replies, as a daemon front end would. *)
let exchange server payload =
  match layer "protocol.parse" (fun () -> S.Protocol.parse_input payload) with
  | Error (code, detail) -> Error (S.Protocol.error_code_name code ^ " " ^ detail)
  | Ok input ->
      let outs = layer "server.handle" (fun () -> S.Server.handle_input server input) in
      let rendered =
        layer "protocol.render" (fun () -> List.map S.Protocol.render_output outs)
      in
      ignore (Sys.opaque_identity rendered);
      Ok outs

(* The client's model of the network, kept from the inputs it sent and
   the deltas it received: who is present, which APs are up, every
   drifted link rate, and the association the deltas describe. *)
type model = {
  lk : Checks.links;  (** rates mutate under drift *)
  present : bool array;
  alive : bool array;
  assoc : int array;
  mutable total : float;  (** loads of the last [settled] reply *)
  mutable max : float;
}

let detach m u = m.assoc.(u) <- Association.none

(* What an accepted event does to the association before any settle. *)
let apply_event m (ev : S.Protocol.event) =
  match ev with
  | S.Protocol.Arrive { user } -> m.present.(user) <- true
  | S.Protocol.Depart { user } ->
      m.present.(user) <- false;
      detach m user
  | S.Protocol.Ap_fail { ap } ->
      m.alive.(ap) <- false;
      Array.iteri (fun u a -> if a = ap then detach m u) m.assoc
  | S.Protocol.Ap_recover { ap } -> m.alive.(ap) <- true
  | S.Protocol.Set_rate _ -> failwith "set-rate is not generated"
  | S.Protocol.Drift { user; steps } ->
      let rs = m.lk.Checks.rates.(user) in
      Array.iteri
        (fun i a ->
          if rs.(i) > 0. then begin
            rs.(i) <- Churn_script.drifted_rate ~tiers:serve_config.S.Replay_log.tiers rs.(i) steps;
            if rs.(i) <= 0. && m.assoc.(user) = a then detach m user
          end)
        m.lk.Checks.cands.(user)

(* Replies to an event at time [t]: settles of the previous batch carry
   earlier times and precede the event; a settle at [t] follows it. *)
let apply_frame m ~drop (input : S.Protocol.input) outs =
  let apply_out = function
    | S.Protocol.Delta { user; from_ap; to_ap; _ } ->
        if !drop then (drop := false; Ok ())
        else if m.assoc.(user) <> from_ap then
          Checks.fail "delta moves user %d from AP %d, but it is on AP %d" user
            from_ap m.assoc.(user)
        else begin
          m.assoc.(user) <- to_ap;
          Ok ()
        end
    | S.Protocol.Settled { total_load; max_load; converged; _ } ->
        m.total <- total_load;
        m.max <- max_load;
        if converged then Ok () else Checks.fail "settle did not converge"
    | S.Protocol.Error { code; detail } ->
        Checks.fail "refused: %s %s" (S.Protocol.error_code_name code) detail
    | S.Protocol.Ok_hello _ | S.Protocol.State _ -> Ok ()
  in
  let time_of = function
    | S.Protocol.Delta { time; _ } | S.Protocol.Settled { time; _ } -> Some time
    | _ -> None
  in
  let all f l = List.fold_left (fun acc x -> Result.bind acc (fun () -> f x)) (Ok ()) l in
  match input with
  | S.Protocol.Event { time; event } ->
      let before, after =
        List.partition
          (fun o -> match time_of o with Some t -> t < time | None -> true)
          outs
      in
      Result.bind (all apply_out before) (fun () ->
          apply_event m event;
          all apply_out after)
  | _ -> all apply_out outs

(* The final association must have the loads the server reported and
   be a Nash point of the MNU rule on the live network. *)
let check_model m =
  let present u = m.present.(u) and alive a = m.alive.(a) in
  let ( let* ) = Result.bind in
  let* () = Checks.in_range m.lk ~present ~alive m.assoc in
  let loads = Checks.loads m.lk m.assoc in
  let total = Array.fold_left ( +. ) 0. loads
  and max = Array.fold_left Float.max 0. loads in
  let* () =
    if Float.abs (total -. m.total) > 1e-6 || Float.abs (max -. m.max) > 1e-9
    then
      Checks.fail "loads from the deltas: total %.17g max %.17g; reported %.17g %.17g"
        total max m.total m.max
    else Ok ()
  in
  Checks.nash_mnu m.lk ~present ~alive m.assoc

(* Churn chunk [k]: [events_per_pass] events drawn by
   [Churn_script.random] with the mix of [Churn_script.default_gen], the
   one the churn experiment and [serve --gen] use, over the first half
   of the chunk's span, after every earlier chunk. Each event keeps its
   kind, time, drift steps and burst size, but arrivals get absent
   users, departures present ones, and failures and recoveries live
   and failed APs, so that events act on the network rather than being
   no-ops. *)
let events_per_pass = 400
let chunk_span = 1000.

let churn_chunk ~seed m k =
  let rng = Random.State.make [| seed; 0x5e17e; k |] in
  let present = Array.copy m.present and alive = Array.copy m.alive in
  (* an index whose flag is [want], which then flips *)
  let flip arr want =
    let n = Array.length arr in
    let rec go tries =
      let i = Random.State.int rng n in
      if arr.(i) = want || tries = 0 then i else go (tries - 1)
    in
    let i = go 64 in
    arr.(i) <- not want;
    i
  in
  let script =
    Churn_script.random ~rng ~n_aps:(Array.length alive) ~n_users:(Array.length present)
      {
        Churn_script.default_gen with
        Churn_script.n_events = events_per_pass;
        duration = chunk_span /. 2.;
      }
  in
  let start = float_of_int (k + 1) *. chunk_span in
  List.map
    (fun { Churn_script.time; event } ->
      let event =
        match event with
        | Churn_script.Join _ -> Churn_script.Join { user = flip present false }
        | Churn_script.Leave _ -> Churn_script.Leave { user = flip present true }
        | Churn_script.Ap_fail _ -> Churn_script.Ap_fail { ap = flip alive true }
        | Churn_script.Ap_recover _ -> Churn_script.Ap_recover { ap = flip alive false }
        | Churn_script.Burst { users } ->
            Churn_script.Burst { users = List.map (fun _ -> flip present false) users }
        | Churn_script.Drift _ -> event
      in
      { Churn_script.time = start +. time; event })
    (Churn_script.events script)

let serve_city_setup ~seed =
  let sc = layer "scenario_gen" (fun () -> Scenario_gen.city ~seed Scenario_gen.city_default) in
  let p = layer "compile" (fun () -> Scenario.to_problem_sparse sc) in
  let server = layer "server.create" (fun () -> S.Server.create ~config:serve_config p) in
  let _, n_users = Problem.dims p in
  (* set-up batch: a seeded [populate_share] of the users arrive at t = 0;
     building the frames is the client's work *)
  let inputs, frames =
    layer "client" (fun () ->
        let rng = Random.State.make [| seed; 0x909 |] in
        let arrive user = S.Protocol.Event { time = 0.; event = S.Protocol.Arrive { user } } in
        let inputs =
          (S.Protocol.Hello { version = S.Protocol.version }
          :: List.filter_map
               (fun u -> if Random.State.float rng 1. < populate_share then Some (arrive u) else None)
               (List.init n_users Fun.id))
          @ [ S.Protocol.Flush ]
        in
        (inputs, List.map S.Protocol.render_input inputs))
  in
  (* the set-up batch goes through the same three steps as a pass's
     frames, one step over all frames at a time, so that tracing opens
     three spans here rather than three per frame *)
  let parsed = layer "protocol.parse" (fun () -> List.map S.Protocol.parse_input frames) in
  let replies =
    layer "server.handle" (fun () ->
        List.map
          (function
            | Ok input -> Ok (S.Server.handle_input server input)
            | Error (code, detail) -> Error (S.Protocol.error_code_name code ^ " " ^ detail))
          parsed)
  in
  let rendered =
    layer "protocol.render" (fun () ->
        List.map (Result.map (List.map S.Protocol.render_output)) replies)
  in
  ignore (Sys.opaque_identity rendered);
  let populate = List.combine inputs replies in
  (* the client model starts from the set-up replies; building it is
     the check's work, so it happens on first use, untimed *)
  let model =
    lazy
      (let lk = Checks.of_table1 sc ~budget:(Problem.budget p) in
       let m =
         {
           lk;
           present = Array.make n_users false;
           alive = Array.make lk.Checks.n_aps true;
           assoc = Array.make n_users Association.none;
           total = 0.;
           max = 0.;
         }
       in
       let drop = ref false in
       List.iter
         (fun (input, r) ->
           record ~what:"set-up frame"
             (match r with
             | Error e -> Error e
             | Ok outs -> apply_frame m ~drop input outs))
         populate;
       record ~what:"set-up" (check_model m);
       m)
  in
  let frames = ref [||] and inputs = ref [||] in
  let replies = ref [||] in
  let lat = ref [] and timed = ref false in
  ( server,
    {
    prepare =
      (fun k ->
        let m = Lazy.force model in
        let script = Churn_script.make (churn_chunk ~seed m k) in
        match S.Adapter.inputs_of_script script with
        | Error e -> failwith (S.Adapter.error_message e)
        | Ok is ->
            (* the flush settles the chunk's last batch before the checks *)
            let is = Array.of_list (is @ [ S.Protocol.Flush ]) in
            inputs := is;
            frames := Array.map S.Protocol.render_input is;
            replies := Array.make (Array.length is) (Ok []);
            timed := k > 0);
    pass =
      (fun _ ->
        let fs = !frames and rs = !replies in
        for i = 0 to Array.length fs - 1 do
          let t0 = Clock.now () in
          let r = Result.join (guard (fun () -> exchange server fs.(i))) in
          let dt = Clock.now () -. t0 in
          rs.(i) <- r;
          if !timed then
            match r with
            | Ok outs
              when List.exists (function S.Protocol.Settled _ -> true | _ -> false) outs ->
                lat := dt :: !lat
            | _ -> ()
        done);
    check =
      (fun _ ->
        let m = Lazy.force model in
        let drop = ref (!corrupt = Some "drop-delta") in
        let n = Array.length !frames in
        Array.iteri
          (fun i r ->
            let r =
              match r with
              | Error e -> Error e
              | Ok outs -> apply_frame m ~drop !inputs.(i) outs
            in
            (* the pass's final frame also answers for the whole-state checks *)
            let r = if i = n - 1 then Result.bind r (fun () -> check_model m) else r in
            record ~what:"frame" r)
          !replies);
    latencies = (fun () -> !lat);
    log_bytes = (fun () -> String.length (S.Server.log_contents server));
  } )

let serve_city ~seed = snd (serve_city_setup ~seed)

let all =
  [
    ("city-plan", city_plan);
    ("city-shadowed", city_shadowed);
    ("serve-city", serve_city);
    ("paper-sweep", paper_sweep);
  ]
