from .cli import exit_with_main

exit_with_main()
