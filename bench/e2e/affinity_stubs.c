/* Pin the calling thread to the CPU it is running on.  Threads it
   creates afterwards (OCaml domains) inherit the mask, so the serve
   workloads' client and daemon domains share one CPU. */

#define _GNU_SOURCE
#include <caml/mlvalues.h>

#ifdef __linux__
#include <sched.h>

value e2e_pin_to_current_cpu(value unit)
{
  (void)unit;
  int cpu = sched_getcpu();
  if (cpu < 0) return Val_int(-1);
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(cpu, &set);
  if (sched_setaffinity(0, sizeof set, &set) != 0) return Val_int(-1);
  return Val_int(cpu);
}
#else
value e2e_pin_to_current_cpu(value unit)
{
  (void)unit;
  return Val_int(-1);
}
#endif
