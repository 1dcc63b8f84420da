(* Log-bucketed (HDR-style) histograms over non-negative integers.

   Values below [sub] (16) are exact; above that, each power-of-two
   octave is split into [sub] sub-buckets, so relative error is bounded
   by 1/16 (~6%) at any magnitude while the whole histogram stays one
   flat int array — recording is two array writes and four scalar
   updates, no allocation, deterministic. Percentiles are reported as
   the lower bound of the covering bucket, which keeps them exact below
   16 and within one sub-bucket above.

   A [set] bundles the six engine latency/size distributions the paper's
   cost-accounting argument needs (DESIGN.md §14); all six serialize
   into the metrics JSON ["hist"] section under ia32el-metrics/2. *)

let sub_bits = 4
let sub = 1 lsl sub_bits

(* 62-bit values need (62 - sub_bits + 1) * sub = 944 buckets; round up. *)
let n_buckets = 960

type t = {
  buckets : int array;
  mutable count : int;
  mutable sum : int;
  mutable vmin : int;
  mutable vmax : int;
}

let create () =
  { buckets = Array.make n_buckets 0; count = 0; sum = 0; vmin = max_int;
    vmax = 0 }

let clear t =
  Array.fill t.buckets 0 n_buckets 0;
  t.count <- 0;
  t.sum <- 0;
  t.vmin <- max_int;
  t.vmax <- 0

(* Index of the bucket covering [v] (v >= 0): identity below [sub]; else
   with [m] the msb position, octave [m - sub_bits] shifted down to a
   [sub..2*sub) mantissa. Continuous at v = sub. *)
let bucket_index v =
  if v < sub then v
  else begin
    let m = ref 0 and x = ref v in
    while !x > 1 do
      x := !x lsr 1;
      incr m
    done;
    let e = !m - sub_bits in
    ((e + 1) * sub) + ((v lsr e) - sub)
  end

(* Smallest value the bucket at [i] covers — the inverse lower bound. *)
let bucket_lo i =
  if i < sub then i else (sub + (i mod sub)) lsl ((i / sub) - 1)

let record t v =
  let v = if v < 0 then 0 else v in
  let i = bucket_index v in
  let i = if i >= n_buckets then n_buckets - 1 else i in
  t.buckets.(i) <- t.buckets.(i) + 1;
  t.count <- t.count + 1;
  t.sum <- t.sum + v;
  if v < t.vmin then t.vmin <- v;
  if v > t.vmax then t.vmax <- v

let count t = t.count
let sum t = t.sum
let min_value t = if t.count = 0 then 0 else t.vmin
let max_value t = t.vmax

(* Lower bound of the bucket holding the q-quantile (0 < q <= 1): walk
   the cumulative counts to ceil(q * count). *)
let percentile t q =
  if t.count = 0 then 0
  else begin
    let need =
      let n = int_of_float (Float.ceil (q *. float_of_int t.count)) in
      if n < 1 then 1 else if n > t.count then t.count else n
    in
    let rec walk i cum =
      if i >= n_buckets then t.vmax
      else
        let cum = cum + t.buckets.(i) in
        if cum >= need then bucket_lo i else walk (i + 1) cum
    in
    walk 0 0
  end

(* Sparse export: [lo, count] pairs for every non-empty bucket, ascending
   — enough to reconstruct the shape without 960 zeroes per histogram. *)
let to_json t =
  let buckets = ref [] in
  for i = n_buckets - 1 downto 0 do
    if t.buckets.(i) > 0 then
      buckets :=
        Metrics.List [ Metrics.Int (bucket_lo i); Metrics.Int t.buckets.(i) ]
        :: !buckets
  done;
  Metrics.Obj
    [
      ("count", Metrics.Int t.count);
      ("sum", Metrics.Int t.sum);
      ("min", Metrics.Int (min_value t));
      ("max", Metrics.Int t.vmax);
      ("p50", Metrics.Int (percentile t 0.50));
      ("p90", Metrics.Int (percentile t 0.90));
      ("p99", Metrics.Int (percentile t 0.99));
      ("buckets", Metrics.List !buckets);
    ]

(* ---- the engine's histogram set --------------------------------------- *)

type set = {
  syscall_latency : t;  (* virtual cycles per syscall, kernel + idle *)
  futex_wait : t;  (* virtual cycles blocked per futex wait *)
  trace_length : t;  (* IA-32 insns per hot superblock *)
  tcache_probe_depth : t;  (* block-cache page-chain length per indirect *)
  translate_block : t;  (* translation cycles charged per block *)
  snapshot_cost : t;  (* host microseconds per snapshot/revert *)
}

let create_set () =
  {
    syscall_latency = create ();
    futex_wait = create ();
    trace_length = create ();
    tcache_probe_depth = create ();
    translate_block = create ();
    snapshot_cost = create ();
  }

let set_fields s =
  [
    ("syscall_latency", s.syscall_latency);
    ("futex_wait", s.futex_wait);
    ("trace_length", s.trace_length);
    ("tcache_probe_depth", s.tcache_probe_depth);
    ("translate_block", s.translate_block);
    ("snapshot_cost", s.snapshot_cost);
  ]

let set_to_json s = List.map (fun (k, h) -> (k, to_json h)) (set_fields s)
