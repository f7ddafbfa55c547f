(* Output checks made apart from the program: Definition 1 loads,
   ranges, budgets, coverage, the BLA lower bound and the MNU-rule Nash
   condition are recomputed here from the benchmark's own link view.
   Nothing below calls a solver, [Loads] or [Solution]. *)

open Wlan_model

(* The paper's Table 1 (802.11a), written out: a link of length d runs
   at the highest rate whose threshold is at least d. *)
let table1 =
  [|
    (54., 35.);
    (48., 40.);
    (36., 60.);
    (24., 85.);
    (18., 105.);
    (12., 145.);
    (6., 200.);
  |]

let table1_range = 200.

let table1_rate d =
  let rec go i =
    if i = Array.length table1 then 0.
    else
      let rate, threshold = table1.(i) in
      if d <= threshold then rate else go (i + 1)
  in
  go 0

let dist (a : Point.t) (b : Point.t) =
  let dx = a.Point.x -. b.Point.x and dy = a.Point.y -. b.Point.y in
  sqrt ((dx *. dx) +. (dy *. dy))

(* The benchmark's view of an instance: per-user candidate APs
   (ascending) with their link rates, the session table and budgets. *)
type links = {
  n_aps : int;
  session_rate : float array;
  user_session : int array;
  budget : float array;  (** per AP *)
  cands : int array array;
  rates : float array array;  (** parallel to [cands]; 0. = link lost *)
}

let n_users lk = Array.length lk.cands

let rate lk ~ap ~user =
  let c = lk.cands.(user) in
  let rec go i =
    if i = Array.length c then 0.
    else if c.(i) = ap then lk.rates.(user).(i)
    else go (i + 1)
  in
  go 0

let base (sc : Scenario.t) ~budget =
  let n_aps = Array.length sc.Scenario.ap_pos in
  ( n_aps,
    Array.map Session.rate_mbps sc.Scenario.sessions,
    Array.copy sc.Scenario.user_session,
    Array.make n_aps budget )

(* Table-1 links from positions, through a bucket grid of its own
   (cells of the radio range; the 3×3 block around a user holds every AP
   within range). *)
let of_table1 (sc : Scenario.t) ~budget =
  let n_aps, session_rate, user_session, budget = base sc ~budget in
  let cell (p : Point.t) =
    ( int_of_float (Float.floor (p.Point.x /. table1_range)),
      int_of_float (Float.floor (p.Point.y /. table1_range)) )
  in
  let grid = Hashtbl.create 4096 in
  Array.iteri
    (fun a p ->
      let k = cell p in
      Hashtbl.replace grid k
        (a :: Option.value ~default:[] (Hashtbl.find_opt grid k)))
    sc.Scenario.ap_pos;
  let n = Array.length sc.Scenario.user_pos in
  let cands = Array.make n [||] and rates = Array.make n [||] in
  Array.iteri
    (fun u up ->
      let cx, cy = cell up in
      let found = ref [] in
      for dx = -1 to 1 do
        for dy = -1 to 1 do
          List.iter
            (fun a ->
              let r = table1_rate (dist sc.Scenario.ap_pos.(a) up) in
              if r > 0. then found := (a, r) :: !found)
            (Option.value ~default:[]
               (Hashtbl.find_opt grid (cx + dx, cy + dy)))
        done
      done;
      let l = List.sort compare !found in
      cands.(u) <- Array.of_list (List.map fst l);
      rates.(u) <- Array.of_list (List.map snd l))
    sc.Scenario.user_pos;
  { n_aps; session_rate; user_session; budget; cands; rates }

(* Links of a path-loss instance: candidates from the compiled problem,
   each rate re-derived from positions through [Rate_model.link]. *)
let of_model (sc : Scenario.t) (p : Problem.t) ~budget =
  let n_aps, session_rate, user_session, budget = base sc ~budget in
  let n = Array.length sc.Scenario.user_pos in
  let cands = Array.make n [||] and rates = Array.make n [||] in
  for u = 0 to n - 1 do
    let l = ref [] in
    Problem.iter_candidates p u (fun a _ _ ->
        let d = dist sc.Scenario.ap_pos.(a) sc.Scenario.user_pos.(u) in
        match Rate_model.link sc.Scenario.model ~ap:a ~user:u ~dist:d with
        | Some (r, _) -> l := (a, r) :: !l
        | None -> ());
    let l = List.rev !l in
    cands.(u) <- Array.of_list (List.map fst l);
    rates.(u) <- Array.of_list (List.map snd l)
  done;
  { n_aps; session_rate; user_session; budget; cands; rates }

let with_budget lk b = { lk with budget = Array.make lk.n_aps b }

(* Definition 1: per (AP, session) the minimum member link rate; an AP's
   load is the sum of session rate / that rate. Users served over a link
   of rate 0 are skipped here and reported by [in_range]. *)
let loads lk (assoc : int array) =
  let n_s = Array.length lk.session_rate in
  let tx = Array.make (lk.n_aps * n_s) infinity in
  Array.iteri
    (fun u a ->
      if a >= 0 && a < lk.n_aps then begin
        let r = rate lk ~ap:a ~user:u in
        let k = (a * n_s) + lk.user_session.(u) in
        if r > 0. && r < tx.(k) then tx.(k) <- r
      end)
    assoc;
  Array.init lk.n_aps (fun a ->
      let l = ref 0. in
      for s = 0 to n_s - 1 do
        let r = tx.((a * n_s) + s) in
        if r < infinity then l := !l +. (lk.session_rate.(s) /. r)
      done;
      !l)

let fail fmt = Printf.ksprintf (fun s -> Error s) fmt
let ( let* ) = Result.bind

let each n f =
  let rec go u = if u = n then Ok () else match f u with Ok () -> go (u + 1) | e -> e in
  go 0

let in_range lk ?(present = fun _ -> true) ?(alive = fun _ -> true) assoc =
  each (n_users lk) (fun u ->
      let a = assoc.(u) in
      if a = Association.none then Ok ()
      else if a < 0 || a >= lk.n_aps then fail "user %d on AP %d: no such AP" u a
      else if not (present u) then fail "absent user %d served by AP %d" u a
      else if not (alive a) then fail "user %d served by dead AP %d" u a
      else if rate lk ~ap:a ~user:u <= 0. then
        fail "user %d served by AP %d out of range" u a
      else Ok ())

let loads_match ~mine ~reported =
  if Array.length mine <> Array.length reported then
    fail "%d loads reported for %d APs" (Array.length reported)
      (Array.length mine)
  else
    each (Array.length mine) (fun a ->
        if Float.abs (mine.(a) -. reported.(a)) > 1e-9 then
          fail "AP %d load %.17g, recomputed %.17g" a reported.(a) mine.(a)
        else Ok ())

let within_budget lk loads =
  each lk.n_aps (fun a ->
      if loads.(a) > lk.budget.(a) +. 1e-9 then
        fail "AP %d load %.17g over budget %g" a loads.(a) lk.budget.(a)
      else Ok ())

let serves_coverable lk assoc =
  each (n_users lk) (fun u ->
      if assoc.(u) = Association.none && Array.exists (fun r -> r > 0.) lk.rates.(u)
      then fail "coverable user %d unserved" u
      else Ok ())

(* Every served user forces at least its session rate / its best link
   rate onto some AP, so no association that serves every coverable user
   has a smaller maximum load. *)
let bla_lower_bound lk =
  let b = ref 0. in
  Array.iteri
    (fun u rs ->
      let best = Array.fold_left Float.max 0. rs in
      if best > 0. then
        b := Float.max !b (lk.session_rate.(lk.user_session.(u)) /. best))
    lk.rates;
  !b

let above_bla_bound lk ~max_load =
  let lb = bla_lower_bound lk in
  if max_load < lb -. 1e-9 then
    fail "max load %.17g below the lower bound %.17g" max_load lb
  else Ok ()

(* Nash condition of the MNU/MLA rule: no served user has a feasible AP
   whose join, together with leaving its own, lowers the total load of
   its neighbourhood, and no unserved present user has a feasible AP.
   Only the two APs of a move change load, so the neighbourhood total
   changes by the sum of their two differences. Moves that win by less
   than [slack] are not reported: the rule compares with a tolerance of
   its own. *)
let nash_mnu lk ?(present = fun _ -> true) ?(alive = fun _ -> true) assoc =
  let slack = 1e-7 in
  let n_s = Array.length lk.session_rate in
  let lds = loads lk assoc in
  (* per (AP, session): smallest member rate, its multiplicity, and the
     next larger member rate *)
  let m1 = Array.make (lk.n_aps * n_s) infinity in
  let c1 = Array.make (lk.n_aps * n_s) 0 in
  let m2 = Array.make (lk.n_aps * n_s) infinity in
  Array.iteri
    (fun u a ->
      if a >= 0 then begin
        let k = (a * n_s) + lk.user_session.(u) and r = rate lk ~ap:a ~user:u in
        if r < m1.(k) then begin
          m2.(k) <- m1.(k);
          m1.(k) <- r;
          c1.(k) <- 1
        end
        else if Float.equal r m1.(k) then c1.(k) <- c1.(k) + 1
        else if r < m2.(k) then m2.(k) <- r
      end)
    assoc;
  let term sr m = if m < infinity then sr /. m else 0. in
  each (n_users lk) (fun u ->
      if not (present u) then Ok ()
      else begin
        let s = lk.user_session.(u) in
        let sr = lk.session_rate.(s) in
        let cur = assoc.(u) in
        (* load change at the current AP if [u] leaves it *)
        let leave_delta =
          if cur < 0 then 0.
          else
            let k = (cur * n_s) + s and r = rate lk ~ap:cur ~user:u in
            if r > m1.(k) || c1.(k) > 1 then 0.
            else term sr m2.(k) -. term sr m1.(k)
        in
        let bad = ref None in
        Array.iteri
          (fun i b ->
            let r = lk.rates.(u).(i) in
            if !bad = None && b <> cur && r > 0. && alive b then begin
              let k = (b * n_s) + s in
              let join_delta =
                if r < m1.(k) then term sr r -. term sr m1.(k) else 0.
              in
              let feasible = lds.(b) +. join_delta <= lk.budget.(b) -. 1e-9 in
              if feasible && (cur < 0 || join_delta +. leave_delta < -.slack)
              then bad := Some b
            end)
          lk.cands.(u);
        match !bad with
        | None -> Ok ()
        | Some b when cur < 0 -> fail "unserved user %d can join AP %d" u b
        | Some b -> fail "user %d on AP %d would lower its load on AP %d" u cur b
      end)

(* The checks one solver output is held to. *)
type expect = {
  budget : bool;  (** every AP within its budget *)
  cover : bool;  (** every coverable user served *)
  bla_bound : bool;  (** max load at or above {!bla_lower_bound} *)
  nash : bool;  (** Nash point of the MNU/MLA rule *)
}

let expect ?(budget = false) ?(cover = false) ?(bla_bound = false)
    ?(nash = false) () =
  { budget; cover; bla_bound; nash }

(* [reported] is the program's per-AP loads when it reports them;
   [converged] its convergence flag for the distributed rules. *)
let solution lk (e : expect) ?reported ?converged assoc =
  let mine = loads lk assoc in
  let* () =
    match converged with Some false -> fail "did not converge" | _ -> Ok ()
  in
  let* () = in_range lk assoc in
  let* () =
    match reported with
    | Some reported -> loads_match ~mine ~reported
    | None -> Ok ()
  in
  let* () = if e.budget then within_budget lk mine else Ok () in
  let* () = if e.cover then serves_coverable lk assoc else Ok () in
  let* () =
    if e.bla_bound then
      above_bla_bound lk ~max_load:(Array.fold_left Float.max 0. mine)
    else Ok ()
  in
  if e.nash then nash_mnu lk assoc else Ok ()
