(** Content-hashed memo-cache keys.

    A key is the full canonical rendering of everything the cached
    result is a function of — request kind, normalised geometry, the
    complete simulator configuration ({!Ggpu_fgpu.Config.canonical}),
    the spec ({!Ggpu_core.Spec.canonical}) and a technology
    fingerprint.  The cache is keyed on the whole string (collisions
    are impossible by construction); the 64-bit FNV-1a hash of a key,
    computed once per request, picks its shard and gives its wire
    digest. *)

val fnv1a64 : string -> int64
(** FNV-1a over the bytes of the string. *)

val hex : int64 -> string
(** A hash as 16 lowercase hex digits (the wire-visible key digest). *)

val hash_hex : string -> string
(** [hex (fnv1a64 s)]. *)

val shard : shards:int -> int64 -> int
(** Shard index in [0, shards) from a key's {!fnv1a64} hash. *)

val tech : Ggpu_tech.Tech.t -> string
(** Technology fingerprint: the model name plus a content hash of every
    numeric parameter, so a retuned model never aliases a cached
    result.  It depends on the values alone, not on the record's
    physical sharing, so every build profile and any structurally equal
    copy agree.  It Marshals the whole model, so compute it once per
    technology. *)

val synth : tech:string -> Ggpu_core.Spec.t -> string
(** Key of a synthesis / DSE request (netlist generation + STA + DSE
    ride on this result); [tech] is the technology's {!tech}
    fingerprint. *)

val sim :
  config:Ggpu_fgpu.Config.t ->
  kernel:string ->
  global_size:int ->
  local_size:int ->
  string
(** Key of a simulation request.  Domain fan-out is deliberately not
    part of the key: simulated results are bit-identical at every
    domain count (enforced by tests). *)

val perf :
  config:Ggpu_fgpu.Config.t ->
  kernel:string ->
  global_size:int ->
  local_size:int ->
  stride:int ->
  string
(** Key of a PMU perf-report request; [stride] is the hot-PC sampling
    period, which changes the report (but never the simulated run). *)

val base_netlist : cus:int -> string
(** Key of a memoized pre-DSE base netlist, shared by every synth
    request of the same CU count — the batching axis.  RTL generation
    is technology-agnostic (the paper's point), so tech is not part of
    this key. *)

val compiled_kernel : string -> string
(** Key of a memoized FGPU compilation of the named suite kernel. *)
