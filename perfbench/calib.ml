(* Machine-speed calibration. The host's speed drifts by tens of percent
   over minutes, for every process on it alike, so each set-up and pass
   is timed between two runs of a fixed kernel and reported at the
   reference speed: time × [reference_s] / kernel time. The kernel
   calls no code of this repository: stdlib RNG seeding (a digest per
   draw, as the shadowed compile does) and float arithmetic. *)

let reference_s = 0.1

let kernel () =
  let acc = ref 0. in
  for i = 1 to 180_000 do
    let rng = Random.State.make [| 0x5eed; i |] in
    let u = Random.State.float rng 1. in
    acc := !acc +. log10 (1. +. u) +. sqrt (float_of_int i)
  done;
  ignore (Sys.opaque_identity !acc)

let time () =
  let t0 = Clock.now () in
  kernel ();
  Clock.now () -. t0

(* [measure f] is [f ()], its wall time, and the mean kernel time around it. *)
let measure f =
  let k0 = time () in
  let t0 = Clock.now () in
  let v = f () in
  let dt = Clock.now () -. t0 in
  let k1 = time () in
  (v, dt, (k0 +. k1) /. 2.)

let normalize ~dt ~kernel = dt *. reference_s /. kernel
