(* Reference figure measured once, outside the workloads: the cost of a
   snapshot on the serve-city network after its set-up batch.

     dune build perfbench/reference.exe && ./_build/default/perfbench/reference.exe

   Prints the wall time of one [snapshot] frame and of
   [Server.state_digest] alone. Needs about 1 GiB of memory. *)

module S = Mcast_serve

let () =
  let seed = 1 in
  let server, inst = Workloads.serve_city_setup ~seed in
  (* the set-up batch is settled; force the client model so the set-up
     replies are checked as in a run *)
  inst.Workloads.prepare 0;
  let t0 = Clock.now () in
  let outs = S.Server.handle_frame server (S.Protocol.render_input S.Protocol.Snapshot) in
  let t1 = Clock.now () in
  let digest = S.Server.state_digest server in
  let t2 = Clock.now () in
  List.iter (fun o -> print_endline (S.Protocol.render_output o)) outs;
  Printf.printf "serve-city seed %d: snapshot frame %.1f s, state_digest alone %.1f s (%s)\n"
    seed (t1 -. t0) (t2 -. t1) digest;
  Printf.printf "failed operations in set-up: %d of %d\n" !Workloads.failed !Workloads.attempted;
  print_string
    (List.find (fun l -> String.length l > 6 && String.sub l 0 6 = "VmHWM:")
       (In_channel.with_open_text "/proc/self/status" In_channel.input_lines));
  print_newline ()
