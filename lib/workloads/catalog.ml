let all ~threads =
  Spec_int.all @ Spec_fp.all
  @ [ Sysmark.office; Sysmark.misalign_stress; Serve_echo.workload ]
  @ Threads.all ~workers:threads

let find ~threads name =
  List.find_opt (fun w -> w.Common.name = name) (all ~threads)
