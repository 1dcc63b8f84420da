(* ia32el-compile: ahead-of-time translation into a persistent cache.

   Sweeps every statically reachable basic block of a workload's guest
   image through the cold translator and records the results in a
   translation-cache file that `ia32el-run --tcache-file` warm-starts
   from. With --train the workload is additionally executed once against
   the same store, which records the hot-phase traces and the real
   translation-request order on top of the static sweep.

     ia32el-compile gzip --tcache-file gzip.tc
     ia32el-compile gzip --tcache-file gzip.tc --train

   The sweep engine is a translation vehicle only — its machine never
   runs, so AOT compilation cannot perturb anything observable. *)

module B = Workloads.Baselines
module C = Workloads.Common

let print_diags diags =
  List.iter (fun d -> Fmt.epr "tcache: %a@." Ia32el.Bt_error.pp d) diags

let compile_cmd name scale tcache_file train train_payload threads =
  let config = Ia32el.Config.default in
  match Workloads.Catalog.find ~threads name with
  | None ->
    Printf.eprintf "unknown workload %S; try `ia32el-run list'\n" name;
    exit 1
  | Some w -> (
    try
      let image = w.C.build ~scale ~wide:false in
      let image_hash = Persist.image_hash image in
      let config_fp = Persist.config_fingerprint config in
      let store, diags = Persist.load ~path:tcache_file ~image_hash ~config_fp in
      print_diags diags;
      (* phase 1: static sweep over everything reachable from the entry
         point and the label table, within the code segment *)
      let mem = Ia32.Memory.create () in
      let _st = Ia32.Asm.load image mem in
      let eng =
        Ia32el.Engine.create ~config ~btlib:(module Btlib.Linuxsim) mem
      in
      let se = Persist.attach store eng in
      let roots =
        image.Ia32.Asm.entry :: List.map snd image.Ia32.Asm.labels
      in
      let lo = image.Ia32.Asm.code_base in
      let hi = lo + String.length image.Ia32.Asm.code in
      let n = Persist.sweep se ~roots ~lo ~hi in
      Printf.printf "%s: %d cold blocks translated ahead of time\n" w.C.name n;
      (* phase 2: optional training run pre-heats the hot traces *)
      if train then begin
        let sref = ref None in
        let r =
          B.run_el ~config
            ~attach:(fun e ->
              (* server-style workloads train against the same request
                 payload the serving pool will bind, so the recorded
                 translation order matches what workers replay *)
              (match train_payload with
              | Some payload -> Btlib.Vos.bind_request e.Ia32el.Engine.vos payload
              | None -> ());
              sref := Some (Persist.attach store e))
            ~check_exit:false w ~scale
        in
        Printf.printf "train: guest exit %d, %d cycles\n" r.B.exit_code
          r.B.cycles;
        match !sref with
        | Some tse -> Fmt.pr "%a@." Persist.pp_stats (Persist.stats tse)
        | None -> ()
      end;
      let ds = Persist.save store ~path:tcache_file in
      print_diags ds;
      if ds <> [] then exit 1;
      Printf.printf "tcache: %d entries -> %s\n" (Persist.entry_count store)
        tcache_file
    with
    | B.Workload_failed msg ->
      Printf.eprintf "workload failed: %s\n" msg;
      exit 1
    | Ia32el.Bt_error.Error e ->
      Fmt.epr "%s: %a@." w.C.name Ia32el.Bt_error.pp e;
      exit 3)

open Cmdliner

let workload_arg =
  Arg.(
    required
    & pos 0 (some string) None
    & info [] ~docv:"WORKLOAD" ~doc:"Workload whose image to compile.")

let scale_arg =
  Arg.(
    value & opt int 1
    & info [ "s"; "scale" ] ~docv:"N" ~doc:"Workload scale factor.")

let tcache_file_arg =
  Arg.(
    required
    & opt (some string) None
    & info [ "o"; "tcache-file" ] ~docv:"FILE"
        ~doc:
          "Translation-cache file to write (extending it if it already \
           exists and matches this image and configuration).")

let train_arg =
  Arg.(
    value & flag
    & info [ "train" ]
        ~doc:
          "After the static sweep, execute the workload once against the \
           same store: records the hot-phase traces and the real \
           translation-request order, so a subsequent warm run starts \
           fully pre-heated.")

let train_payload_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "train-payload" ] ~docv:"STR"
        ~doc:
          "Bind $(docv) on the Vos request channel during the training \
           run — required to train server-style workloads (serve-echo) \
           for `ia32el-serve', so the recorded translation-request order \
           matches what same-payload served requests replay.")

let threads_arg =
  Arg.(
    value
    & opt int Workloads.Threads.default_workers
    & info [ "threads" ] ~docv:"N"
        ~doc:"Worker-thread count for the multithreaded workloads.")

let main =
  Cmd.v
    (Cmd.info "ia32el-compile" ~version:"1.0.0"
       ~doc:
         "Ahead-of-time translate a workload image into a persistent \
          translation cache.")
    Term.(
      const compile_cmd $ workload_arg $ scale_arg $ tcache_file_arg
      $ train_arg $ train_payload_arg $ threads_arg)

let () = exit (Cmd.eval main)
